//! Generic keyspace commands: KEYS.

use super::{bulk_array, wrong_args};
use crate::resp::Frame;
use crate::store::{keys_matching, Db};
use d4py_sync::SharedBuf;

pub(crate) fn keys(db: &mut Db, args: &[SharedBuf]) -> Frame {
    if args.len() != 1 {
        return wrong_args("KEYS");
    }
    bulk_array(keys_matching(db, &args[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::RValue;

    fn f(parts: &[&str]) -> Vec<SharedBuf> {
        parts
            .iter()
            .map(|p| SharedBuf::from(p.as_bytes()))
            .collect()
    }

    #[test]
    fn keys_pattern() {
        let mut db = Db::new();
        db.insert(b"a".to_vec(), RValue::Str(b"1".to_vec()));
        db.insert(b"b".to_vec(), RValue::Str(b"2".to_vec()));
        assert_eq!(
            keys(&mut db, &f(&["*"])),
            Frame::Array(vec![Frame::bulk("a"), Frame::bulk("b")])
        );
    }
}
