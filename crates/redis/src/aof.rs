//! Append-only-file persistence (Redis's AOF).
//!
//! The paper attributes part of the Redis mappings' overhead to Redis being
//! "more resource-intensive" thanks to features like "robust data
//! persistence" (§5.2). redis-lite makes that cost explicit and switchable:
//! with an [`Aof`] attached, every write command is appended to a log in
//! RESP command format (exactly like Redis's AOF, so the file is replayable
//! by any RESP speaker) and replayed on startup.
//!
//! Fsync policy mirrors Redis's `appendfsync`: [`FsyncPolicy::Always`]
//! (durable, slow) or [`FsyncPolicy::No`] (buffered, fast; the OS decides).

use crate::resp;
use d4py_sync::Mutex;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// When to fsync the AOF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every write command (Redis `appendfsync always`).
    Always,
    /// Never fsync explicitly (Redis `appendfsync no`).
    No,
}

/// An append-only command log.
pub struct Aof {
    path: PathBuf,
    writer: Mutex<BufWriter<std::fs::File>>,
    policy: FsyncPolicy,
}

impl Aof {
    /// Opens (creating if missing) the AOF at `path` for appending.
    pub fn open(path: impl AsRef<Path>, policy: FsyncPolicy) -> std::io::Result<Aof> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Aof {
            path,
            writer: Mutex::new(BufWriter::new(file)),
            policy,
        })
    }

    /// The log's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one command (array-of-bulk-strings form). Accepts any
    /// byte-slice-like argument type (`Vec<u8>`, `SharedBuf`, ...).
    pub fn append<T: AsRef<[u8]>>(&self, args: &[T]) -> std::io::Result<()> {
        let borrowed: Vec<&[u8]> = args.iter().map(|a| a.as_ref()).collect();
        let mut buf = d4py_sync::ByteBuf::with_capacity(64);
        resp::encode_command(&borrowed, &mut buf);
        let mut writer = self.writer.lock();
        writer.write_all(&buf)?;
        match self.policy {
            FsyncPolicy::Always => {
                writer.flush()?;
                writer.get_ref().sync_data()?;
            }
            FsyncPolicy::No => {}
        }
        Ok(())
    }

    /// Flushes buffered commands to the OS.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().flush()
    }

    /// Reads every command stored at `path` (for replay). Tolerates a
    /// truncated trailing command — the crash case AOF exists for.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Vec<Vec<Vec<u8>>>> {
        let mut bytes = Vec::new();
        match std::fs::File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(vec![]),
            Err(e) => return Err(e),
        }
        let mut commands = Vec::new();
        let mut offset = 0;
        while offset < bytes.len() {
            match resp::decode(&bytes[offset..]) {
                Ok(Some((frame, used))) => {
                    offset += used;
                    if let Some(items) = frame.as_array() {
                        let args: Vec<Vec<u8>> = items
                            .iter()
                            .filter_map(|f| match f {
                                resp::Frame::Bulk(b) => Some(b.to_vec()),
                                _ => None,
                            })
                            .collect();
                        if args.len() == items.len() {
                            commands.push(args);
                        }
                    }
                }
                Ok(None) => break, // truncated tail: stop cleanly
                Err(_) => break,   // corrupt tail: keep what replayed
            }
        }
        Ok(commands)
    }
}

impl Drop for Aof {
    fn drop(&mut self) {
        let _ = self.writer.lock().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("d4py_aof_{}_{tag}.aof", std::process::id()))
    }

    fn cmd(parts: &[&str]) -> Vec<Vec<u8>> {
        parts.iter().map(|p| p.as_bytes().to_vec()).collect()
    }

    #[test]
    fn append_and_load_roundtrip() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let aof = Aof::open(&path, FsyncPolicy::No).unwrap();
            aof.append(&cmd(&["SET", "k", "v"])).unwrap();
            aof.append(&cmd(&["XADD", "q", "1-0", "a", "b"])).unwrap();
            aof.flush().unwrap();
        }
        let commands = Aof::load(&path).unwrap();
        assert_eq!(commands.len(), 2);
        assert_eq!(commands[0], cmd(&["SET", "k", "v"]));
        assert_eq!(commands[1], cmd(&["XADD", "q", "1-0", "a", "b"]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_loads_empty() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        assert!(Aof::load(&path).unwrap().is_empty());
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let path = temp_path("truncated");
        let _ = std::fs::remove_file(&path);
        {
            let aof = Aof::open(&path, FsyncPolicy::Always).unwrap();
            aof.append(&cmd(&["SET", "a", "1"])).unwrap();
            aof.append(&cmd(&["SET", "b", "2"])).unwrap();
        }
        // Chop bytes off the end, simulating a crash mid-append.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let commands = Aof::load(&path).unwrap();
        assert_eq!(commands.len(), 1, "only the complete command survives");
        assert_eq!(commands[0], cmd(&["SET", "a", "1"]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_always_survives_without_flush() {
        let path = temp_path("fsync");
        let _ = std::fs::remove_file(&path);
        let aof = Aof::open(&path, FsyncPolicy::Always).unwrap();
        aof.append(&cmd(&["SET", "k", "v"])).unwrap();
        // No explicit flush: Always policy already flushed.
        let commands = Aof::load(&path).unwrap();
        assert_eq!(commands.len(), 1);
        drop(aof);
        let _ = std::fs::remove_file(&path);
    }
}
