//! The keyspace: typed values and glob matching.

pub mod stream;

use std::collections::HashMap;
use stream::Stream;

/// A value stored under a key.
#[derive(Debug, Clone)]
pub enum RValue {
    /// Binary-safe string.
    Str(Vec<u8>),
    /// Field → value hash.
    Hash(HashMap<Vec<u8>, Vec<u8>>),
    /// Append-only stream.
    Stream(Stream),
}

/// The in-memory database (a single Redis keyspace). Keys never expire.
pub type Db = HashMap<Vec<u8>, RValue>;

/// Keys matching a glob pattern, sorted (deterministic `KEYS`).
pub fn keys_matching(db: &Db, pattern: &[u8]) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = db
        .keys()
        .filter(|k| glob_match(pattern, k))
        .cloned()
        .collect();
    keys.sort();
    keys
}

/// Minimal Redis-style glob: `*` (any run), `?` (any one byte), literal
/// otherwise. Character classes are not supported (the workflows never use
/// them).
pub fn glob_match(pattern: &[u8], text: &[u8]) -> bool {
    match (pattern.first(), text.first()) {
        (None, None) => true,
        (Some(b'*'), _) => {
            glob_match(&pattern[1..], text) || (!text.is_empty() && glob_match(pattern, &text[1..]))
        }
        (Some(b'?'), Some(_)) => glob_match(&pattern[1..], &text[1..]),
        (Some(&p), Some(&t)) if p == t => glob_match(&pattern[1..], &text[1..]),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_matching_globs() {
        let mut db = Db::new();
        for k in ["queue:global", "queue:private:1", "state:CA"] {
            db.insert(k.as_bytes().to_vec(), RValue::Str(vec![]));
        }
        assert_eq!(keys_matching(&db, b"queue:*").len(), 2);
        assert_eq!(keys_matching(&db, b"*").len(), 3);
        assert_eq!(keys_matching(&db, b"state:??").len(), 1);
        assert_eq!(keys_matching(&db, b"zzz*").len(), 0);
    }

    #[test]
    fn glob_edge_cases() {
        assert!(glob_match(b"", b""));
        assert!(glob_match(b"*", b""));
        assert!(glob_match(b"a*b*c", b"aXXbYYc"));
        assert!(!glob_match(b"a?c", b"ac"));
        assert!(!glob_match(b"abc", b"abcd"));
    }
}
