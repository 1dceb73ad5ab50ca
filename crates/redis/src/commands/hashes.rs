//! Hash commands: HSET, HGET and HKEYS (the state store's three verbs).

use super::{bulk_array, wrong_args, wrong_type};
use crate::resp::Frame;
use crate::store::{Db, RValue};
use d4py_sync::SharedBuf;

pub(crate) fn hset(db: &mut Db, args: &[SharedBuf]) -> Frame {
    if args.len() < 3 || args.len().is_multiple_of(2) {
        return wrong_args("HSET");
    }
    match db
        .entry(args[0].to_vec())
        .or_insert_with(|| RValue::Hash(Default::default()))
    {
        RValue::Hash(h) => {
            let mut added = 0;
            for pair in args[1..].chunks(2) {
                if h.insert(pair[0].to_vec(), pair[1].to_vec()).is_none() {
                    added += 1;
                }
            }
            Frame::Integer(added)
        }
        _ => wrong_type(),
    }
}

pub(crate) fn hget(db: &mut Db, args: &[SharedBuf]) -> Frame {
    if args.len() != 2 {
        return wrong_args("HGET");
    }
    match db.get(args[0].as_slice()) {
        None => Frame::Null,
        Some(RValue::Hash(h)) => h
            .get(args[1].as_slice())
            .map(|v| Frame::bulk(v.clone()))
            .unwrap_or(Frame::Null),
        Some(_) => wrong_type(),
    }
}

pub(crate) fn hkeys(db: &mut Db, args: &[SharedBuf]) -> Frame {
    if args.len() != 1 {
        return wrong_args("HKEYS");
    }
    match db.get(args[0].as_slice()) {
        None => Frame::Array(vec![]),
        Some(RValue::Hash(h)) => {
            let mut keys: Vec<Vec<u8>> = h.keys().cloned().collect();
            keys.sort();
            bulk_array(keys)
        }
        Some(_) => wrong_type(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(parts: &[&str]) -> Vec<SharedBuf> {
        parts
            .iter()
            .map(|p| SharedBuf::from(p.as_bytes()))
            .collect()
    }

    #[test]
    fn hset_hget_roundtrip() {
        let mut db = Db::new();
        assert_eq!(
            hset(&mut db, &f(&["h", "a", "1", "b", "2"])),
            Frame::Integer(2)
        );
        assert_eq!(
            hset(&mut db, &f(&["h", "a", "9"])),
            Frame::Integer(0),
            "overwrite"
        );
        assert_eq!(hget(&mut db, &f(&["h", "a"])), Frame::bulk("9"));
        assert_eq!(hget(&mut db, &f(&["h", "zz"])), Frame::Null);
        assert_eq!(hget(&mut db, &f(&["nope", "a"])), Frame::Null);
        assert!(hset(&mut db, &f(&["h", "a"])).is_error(), "odd pairs");
    }

    #[test]
    fn hkeys_sorted() {
        let mut db = Db::new();
        hset(&mut db, &f(&["h", "b", "2", "a", "1"]));
        assert_eq!(
            hkeys(&mut db, &f(&["h"])),
            Frame::Array(vec![Frame::bulk("a"), Frame::bulk("b")])
        );
        assert_eq!(hkeys(&mut db, &f(&["nope"])), Frame::Array(vec![]));
    }

    #[test]
    fn wrong_type_everywhere() {
        let mut db = Db::new();
        db.insert(b"s".to_vec(), RValue::Str(vec![]));
        assert!(hset(&mut db, &f(&["s", "a", "1"])).is_error());
        assert!(hget(&mut db, &f(&["s", "a"])).is_error());
        assert!(hkeys(&mut db, &f(&["s"])).is_error());
    }
}
