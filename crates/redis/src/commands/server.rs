//! Connection/server commands.

use super::wrong_args;
use crate::resp::Frame;
use crate::store::Db;
use d4py_sync::SharedBuf;

pub(crate) fn ping(args: &[SharedBuf]) -> Frame {
    match args.len() {
        0 => Frame::Simple("PONG".into()),
        1 => Frame::Bulk(args[0].clone()),
        _ => wrong_args("PING"),
    }
}

pub(crate) fn echo(args: &[SharedBuf]) -> Frame {
    match args.len() {
        1 => Frame::Bulk(args[0].clone()),
        _ => wrong_args("ECHO"),
    }
}

pub(crate) fn flushall(db: &mut Db) -> Frame {
    db.clear();
    Frame::ok()
}

pub(crate) fn dbsize(db: &Db) -> Frame {
    Frame::Integer(db.len() as i64)
}

pub(crate) fn info(db: &Db) -> Frame {
    Frame::bulk(format!(
        "# Server\r\nredis_version:redis-lite-0.1\r\n# Keyspace\r\ndb0:keys={}\r\n",
        db.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::RValue;

    #[test]
    fn ping_variants() {
        assert_eq!(ping(&[]), Frame::Simple("PONG".into()));
        assert_eq!(ping(&[b"hi".into()]), Frame::bulk("hi"));
        assert!(ping(&[b"a".into(), b"b".into()]).is_error());
    }

    #[test]
    fn echo_echoes() {
        assert_eq!(echo(&[b"x".into()]), Frame::bulk("x"));
        assert!(echo(&[]).is_error());
    }

    #[test]
    fn flush_and_size() {
        let mut db = Db::new();
        db.insert(b"a".to_vec(), RValue::Str(vec![]));
        db.insert(b"b".to_vec(), RValue::Str(vec![]));
        assert_eq!(dbsize(&db), Frame::Integer(2));
        assert_eq!(flushall(&mut db), Frame::ok());
        assert_eq!(dbsize(&db), Frame::Integer(0));
    }

    #[test]
    fn info_mentions_keyspace() {
        let db = Db::new();
        let text = info(&db).as_text().unwrap();
        assert!(text.contains("redis-lite"));
        assert!(text.contains("keys=0"));
    }
}
