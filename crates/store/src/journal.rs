//! Append-only, integrity-checked record log — the durability
//! primitive under the campaign service's job journal.
//!
//! The model-store container ([`format`](crate::format)) is a
//! whole-file artifact: rewritten atomically, digested end to end.  A
//! journal has the opposite life cycle — it grows one record at a time
//! and must survive being killed *mid-write* — so it gets its own
//! framing with the same integrity discipline:
//!
//! ```text
//! magic "RSKJ" | version u16 LE
//! per record:  len u32 LE | CRC-32(payload) u32 LE | payload bytes
//! ```
//!
//! * **fsync-on-append** — [`JournalFile::append`] does not return
//!   until the record is flushed and `fsync`ed, so a record the caller
//!   saw succeed survives an immediate `SIGKILL` / power cut;
//! * **torn-tail truncation** — a crash mid-append leaves a partial
//!   frame (short length field, short payload, or a CRC mismatch) at
//!   the tail; [`JournalFile::open`] detects it, truncates the file
//!   back to the last intact record, and reports how many bytes were
//!   dropped.  Framing is sequential, so nothing after a bad record is
//!   reachable anyway — truncating at the first failure is the only
//!   consistent recovery;
//! * **typed header errors** — a wrong magic or a newer version is a
//!   *caller* problem (wrong file, downgraded binary), not a torn
//!   tail, and fails loudly instead of being "recovered" to empty.
//!
//! Payload bytes are opaque here; the campaign service stores one
//! serde-JSON event per record.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::digest::crc32;
use crate::format::StoreError;

/// First four bytes of every journal file.
pub const JOURNAL_MAGIC: [u8; 4] = *b"RSKJ";

/// Current journal format version.
pub const JOURNAL_VERSION: u16 = 1;

/// Bytes of header preceding the first record.
const HEADER_LEN: usize = 6;

/// Bytes of framing preceding each record's payload.
const FRAME_LEN: usize = 8;

fn io_err(path: &Path, err: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        detail: err.to_string(),
    }
}

/// The result of opening (or creating) a journal: the writable handle,
/// every intact record in append order, and how many torn-tail bytes
/// were dropped (0 for a clean file).
pub struct JournalOpen {
    /// Handle positioned for appending.
    pub journal: JournalFile,
    /// Payloads of every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes truncated off the tail (a crash mid-append), 0 if none.
    pub truncated_bytes: u64,
}

/// An open append-only record log. See the module docs for the format.
pub struct JournalFile {
    file: File,
    path: PathBuf,
}

impl JournalFile {
    /// Opens `path`, creating an empty journal (header only) if absent,
    /// and replays every intact record. A torn tail — the residue of a
    /// crash mid-append — is truncated away and reported via
    /// [`JournalOpen::truncated_bytes`].
    ///
    /// # Errors
    ///
    /// I/O failure, wrong magic, or a version newer than this reader.
    /// A *header* shorter than the fixed header length on a non-empty
    /// file is `Truncated` — that is not a recoverable tail.
    pub fn open(path: &Path) -> Result<JournalOpen, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io_err(path, &e))?;

        if bytes.is_empty() {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&JOURNAL_MAGIC);
            header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
            file.write_all(&header).map_err(|e| io_err(path, &e))?;
            file.sync_data().map_err(|e| io_err(path, &e))?;
            return Ok(JournalOpen {
                journal: JournalFile {
                    file,
                    path: path.to_path_buf(),
                },
                records: Vec::new(),
                truncated_bytes: 0,
            });
        }
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                offset: 0,
                needed: HEADER_LEN,
                len: bytes.len(),
            });
        }
        if bytes[..4] != JOURNAL_MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&bytes[..4]);
            return Err(StoreError::BadMagic { found });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version > JOURNAL_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }

        let mut records = Vec::new();
        let mut offset = HEADER_LEN;
        // `good_end` is the offset just past the last record that
        // framed and checksummed cleanly; anything beyond it is tail.
        let mut good_end = offset;
        while offset < bytes.len() {
            if bytes.len() - offset < FRAME_LEN {
                break; // torn frame header
            }
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            let expected_crc =
                u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
            let payload_start = offset + FRAME_LEN;
            if bytes.len() - payload_start < len {
                break; // torn payload
            }
            let payload = &bytes[payload_start..payload_start + len];
            if crc32(payload) != expected_crc {
                break; // torn or corrupted record; framing beyond it is lost
            }
            records.push(payload.to_vec());
            offset = payload_start + len;
            good_end = offset;
        }

        let truncated_bytes = (bytes.len() - good_end) as u64;
        if truncated_bytes > 0 {
            file.set_len(good_end as u64)
                .map_err(|e| io_err(path, &e))?;
            file.sync_data().map_err(|e| io_err(path, &e))?;
        }
        // Position for appends regardless of how we got here.
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(path, &e))?;
        Ok(JournalOpen {
            journal: JournalFile {
                file,
                path: path.to_path_buf(),
            },
            records,
            truncated_bytes,
        })
    }

    /// Appends one record and does not return until it is flushed and
    /// `fsync`ed — after a successful return the record survives an
    /// immediate kill.
    ///
    /// # Errors
    ///
    /// I/O failure (the journal should be considered unusable — a
    /// partial frame may now be on disk; the next
    /// [`open`](JournalFile::open) truncates it away).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let len = u32::try_from(payload.len()).map_err(|_| StoreError::Io {
            path: self.path.clone(),
            detail: format!("record of {} bytes exceeds u32 framing", payload.len()),
        })?;
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(&self.path, &e))
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_journal(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "rskip-journal-{tag}-{}-{n}.rskj",
            std::process::id()
        ))
    }

    fn reopen_records(path: &Path) -> (Vec<Vec<u8>>, u64) {
        let opened = JournalFile::open(path).expect("reopen");
        (opened.records, opened.truncated_bytes)
    }

    #[test]
    fn roundtrip_across_reopens() {
        let path = temp_journal("roundtrip");
        let payloads: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![], vec![0xFF; 300]];
        {
            let mut j = JournalFile::open(&path).unwrap().journal;
            for p in &payloads {
                j.append(p).unwrap();
            }
        }
        let (records, truncated) = reopen_records(&path);
        assert_eq!(records, payloads);
        assert_eq!(truncated, 0);
        // Appending after a reopen extends, not clobbers.
        {
            let mut j = JournalFile::open(&path).unwrap().journal;
            j.append(b"tail").unwrap();
        }
        let (records, _) = reopen_records(&path);
        assert_eq!(records.len(), 4);
        assert_eq!(records[3], b"tail");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let reference = temp_journal("torn-ref");
        {
            let mut j = JournalFile::open(&reference).unwrap().journal;
            j.append(b"first record").unwrap();
            j.append(b"second record, a bit longer").unwrap();
        }
        let full = std::fs::read(&reference).unwrap();
        std::fs::remove_file(&reference).ok();

        // The first record ends at HEADER_LEN + FRAME_LEN + 12.
        let first_end = HEADER_LEN + FRAME_LEN + b"first record".len();
        // Cut anywhere strictly inside the second record's frame: the
        // first record must survive, the tail must be dropped.
        for cut in first_end + 1..full.len() {
            let path = temp_journal("torn");
            std::fs::write(&path, &full[..cut]).unwrap();
            let (records, truncated) = reopen_records(&path);
            assert_eq!(records, vec![b"first record".to_vec()], "cut at {cut}");
            assert_eq!(truncated, (cut - first_end) as u64, "cut at {cut}");
            // The truncation is persistent: a second open is clean.
            let (records, truncated) = reopen_records(&path);
            assert_eq!(records.len(), 1);
            assert_eq!(truncated, 0);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn append_after_torn_tail_recovery_works() {
        let path = temp_journal("recover-append");
        {
            let mut j = JournalFile::open(&path).unwrap().journal;
            j.append(b"kept").unwrap();
        }
        // Simulate a crash mid-append: half a frame header.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB, 0xCD]).unwrap();
        }
        let opened = JournalFile::open(&path).unwrap();
        assert_eq!(opened.truncated_bytes, 2);
        let mut j = opened.journal;
        j.append(b"appended after recovery").unwrap();
        let (records, truncated) = reopen_records(&path);
        assert_eq!(
            records,
            vec![b"kept".to_vec(), b"appended after recovery".to_vec()]
        );
        assert_eq!(truncated, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_record_drops_it_and_everything_after() {
        let path = temp_journal("corrupt");
        {
            let mut j = JournalFile::open(&path).unwrap().journal;
            j.append(b"good one").unwrap();
            j.append(b"flipped").unwrap();
            j.append(b"unreachable").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte inside the second record.
        let off = HEADER_LEN + FRAME_LEN + b"good one".len() + FRAME_LEN;
        bytes[off] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (records, truncated) = reopen_records(&path);
        assert_eq!(records, vec![b"good one".to_vec()]);
        assert!(truncated > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_newer_version_fail_loudly() {
        let path = temp_journal("magic");
        std::fs::write(&path, b"NOPE\x01\x00").unwrap();
        assert!(matches!(
            JournalFile::open(&path),
            Err(StoreError::BadMagic { found }) if &found == b"NOPE"
        ));
        let mut header = JOURNAL_MAGIC.to_vec();
        header.extend_from_slice(&(JOURNAL_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &header).unwrap();
        assert!(matches!(
            JournalFile::open(&path),
            Err(StoreError::UnsupportedVersion { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
