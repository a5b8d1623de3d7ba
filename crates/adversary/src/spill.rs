//! Spill files: the scratch files in the temp directory that the tiered
//! visited set ([`crate::visited`]) writes its sorted key runs to, and that
//! the parallel engine streams its frontier levels and path records
//! through ([`crate::levels`]).
//!
//! One type holds the platform-specific positioned I/O and the one
//! lifecycle every spill file shares: created fresh under a process-unique
//! name, read and written by position, deleted when dropped.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique sequence for spill-file names; combined with the PID so
/// concurrent explorations (and concurrent test processes) never collide.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A scratch file in the temp directory, named for its `kind` (`visited`
/// runs, `levels`, `paths`), read and written by position and deleted on
/// drop. Writers reserve their extent with one atomic add, so concurrent
/// writers never overlap; a [`rewind`](SpillFile::rewind) sends the next
/// writes back over the file's first bytes, in place, and nothing
/// truncates it.
pub(crate) struct SpillFile {
    file: File,
    path: PathBuf,
    /// The next unreserved byte.
    end: AtomicU64,
    /// The furthest `end` reached before the last rewind.
    high: u64,
    /// Serialises seek+read/write pairs on platforms without positioned I/O.
    #[cfg(not(unix))]
    io: std::sync::Mutex<()>,
}

impl std::fmt::Debug for SpillFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillFile")
            .field("path", &self.path)
            .field("extent", &self.extent())
            .finish()
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl SpillFile {
    /// Creates a fresh spill file for `kind` in the temp directory.
    pub(crate) fn create(kind: &str) -> std::io::Result<SpillFile> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("nonfifo-{kind}-{}-{seq}.run", std::process::id()));
        // `File::create` would hand back a write-only descriptor; a spill
        // file is read back for the rest of its life, so open read+write.
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(SpillFile {
            file,
            path,
            end: AtomicU64::new(0),
            high: 0,
            #[cfg(not(unix))]
            io: std::sync::Mutex::new(()),
        })
    }

    /// Where the file lives, until it is dropped.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Reserves the next `len` bytes and returns their offset.
    pub(crate) fn reserve(&self, len: usize) -> u64 {
        self.end.fetch_add(len as u64, Ordering::Relaxed)
    }

    /// Appends `bytes` and returns the offset they start at.
    pub(crate) fn append(&self, bytes: &[u8]) -> std::io::Result<u64> {
        let at = self.reserve(bytes.len());
        self.write_at(at, bytes)?;
        Ok(at)
    }

    /// Sends the next reservations back to offset 0: what follows is
    /// written over the file's bytes in place, and the file keeps its
    /// length.
    pub(crate) fn rewind(&mut self) {
        self.high = self.extent();
        *self.end.get_mut() = 0;
    }

    /// The bytes the file holds: the furthest offset ever reserved.
    pub(crate) fn extent(&self) -> u64 {
        self.high.max(self.end.load(Ordering::Relaxed))
    }

    /// Writes `bytes` at `at`: into a reserved extent, or over bytes
    /// written before.
    pub(crate) fn write_at(&self, at: u64, bytes: &[u8]) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(bytes, at)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom, Write};
            // `Write`/`Seek` are implemented for `&File`, so a shared
            // writer only needs the mutex to keep seek+write atomic.
            let _guard = self.io.lock().expect("spill file lock");
            let mut file = &self.file;
            file.seek(SeekFrom::Start(at))?;
            file.write_all(bytes)
        }
    }

    /// Fills `buf` from the bytes at `at`.
    pub(crate) fn read_at(&self, at: u64, buf: &mut [u8]) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, at)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let _guard = self.io.lock().expect("spill file lock");
            let mut file = &self.file;
            file.seek(SeekFrom::Start(at))?;
            file.read_exact(buf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_files_read_back_rewind_in_place_and_go_on_drop() {
        let mut file = SpillFile::create("test").unwrap();
        let path = file.path().to_path_buf();
        assert!(path.exists(), "the spill file lives in the temp directory");
        let at = file.append(b"abcdefgh").unwrap();
        file.write_at(at + 2, b"CD").unwrap();
        let mut back = [0u8; 8];
        file.read_at(at, &mut back).unwrap();
        assert_eq!(&back, b"abCDefgh");
        assert_eq!(file.append(b"ij").unwrap(), at + 8, "offsets rise");
        // A rewind writes over the first bytes in place and keeps the
        // file's length and extent.
        file.rewind();
        assert_eq!(file.append(b"XY").unwrap(), 0);
        assert_eq!(file.extent(), 10);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 10);
        let mut back = [0u8; 10];
        file.read_at(0, &mut back).unwrap();
        assert_eq!(&back, b"XYCDefghij");
        drop(file);
        assert!(!path.exists(), "dropping the spill file deletes it");
    }
}
