//! String commands: SET and GET.

use super::{wrong_args, wrong_type};
use crate::resp::Frame;
use crate::store::{Db, RValue};
use d4py_sync::SharedBuf;

/// `SET key value`: exactly a key and a value; an option is a syntax error.
pub(crate) fn set(db: &mut Db, args: &[SharedBuf]) -> Frame {
    match args {
        [key, value] => {
            db.insert(key.to_vec(), RValue::Str(value.to_vec()));
            Frame::ok()
        }
        [_, _, extra, ..] => Frame::error(format!(
            "syntax error near '{}'",
            String::from_utf8_lossy(extra)
        )),
        _ => wrong_args("SET"),
    }
}

pub(crate) fn get(db: &mut Db, args: &[SharedBuf]) -> Frame {
    if args.len() != 1 {
        return wrong_args("GET");
    }
    match db.get(args[0].as_slice()) {
        None => Frame::Null,
        Some(RValue::Str(v)) => Frame::bulk(v.clone()),
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
    fn set_get_roundtrip() {
        let mut db = Db::new();
        assert_eq!(set(&mut db, &f(&["k", "v"])), Frame::ok());
        assert_eq!(get(&mut db, &f(&["k"])), Frame::bulk("v"));
    }

    #[test]
    fn set_rejects_bad_expiry_and_syntax() {
        // Keys never expire: every option, an expiry among them, is a
        // syntax error.
        let mut db = Db::new();
        for extra in [
            &["EX", "10"][..],
            &["PX", "5"],
            &["NX"],
            &["XX"],
            &["BOGUS"],
        ] {
            let mut args = vec!["k", "v"];
            args.extend_from_slice(extra);
            let reply = set(&mut db, &f(&args));
            assert!(
                reply.as_text().is_some_and(|t| t.contains("syntax error")),
                "SET k v {extra:?}: {reply:?}"
            );
        }
        assert!(set(&mut db, &f(&["k"])).is_error());
        assert_eq!(get(&mut db, &f(&["k"])), Frame::Null, "nothing was set");
    }

    #[test]
    fn wrong_type_reported() {
        let mut db = Db::new();
        db.insert(b"h".to_vec(), RValue::Hash(Default::default()));
        assert!(get(&mut db, &f(&["h"])).is_error());
    }
}
