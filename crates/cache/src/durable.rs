//! Durable files: the sealed frame, the staged atomic write, and the
//! orphan `*.tmp` sweep — shared by the tile-result cache and the
//! signoff checkpoint store.
//!
//! A **sealed frame** is
//!
//! ```text
//! magic [4] | version u32 | body | checksum u64
//! ```
//!
//! little-endian, where the checksum is FNV-1a 64 over everything
//! before it. [`unseal`] refuses any defect (short, bad checksum, wrong
//! magic or version), so a reader treats every damaged file as absent.
//!
//! A **staged write** writes `<path>.tmp`, syncs it, and renames it
//! over `path`, so a crash leaves either the old file, the new file,
//! or an orphan tmp — never a torn file. The caller's probe runs at
//! each [`StoreStage`], which is where the crash simulator kills the
//! writer. [`sweep_tmp`] removes the orphans on the next open.

use dfm_rand::fnv1a_64;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Fixed bytes a sealed frame adds around its body: magic, version,
/// trailing checksum.
pub const FRAME_OVERHEAD: usize = 4 + 4 + 8;

/// Starts a sealed frame: `magic | version`, with room for `body`
/// more bytes. Append the body, then call [`seal`].
pub fn frame(magic: &[u8; 4], version: u32, body: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + body);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out
}

/// Seals a frame begun by [`frame`]: appends the checksum over
/// everything before it.
pub fn seal(mut frame: Vec<u8>) -> Vec<u8> {
    let checksum = fnv1a_64(&frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// The body of a sealed frame, or `None` when the bytes are short,
/// fail the checksum, or carry another magic or version.
pub fn unseal<'a>(bytes: &'a [u8], magic: &[u8; 4], version: u32) -> Option<&'a [u8]> {
    let sealed = bytes.len().checked_sub(8)?;
    let (head, tail) = bytes.split_at(sealed);
    if head.len() < 8 || u64::from_le_bytes(tail.try_into().ok()?) != fnv1a_64(head) {
        return None;
    }
    let (header, body) = head.split_at(8);
    (header[..4] == magic[..] && header[4..] == version.to_le_bytes()).then_some(body)
}

/// The staged durable transitions of one atomic write, as seen by the
/// probe of [`write_staged`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreStage {
    /// Tmp file written and synced; rename not yet done.
    Tmp,
    /// File renamed into place; success not yet reported.
    Rename,
}

/// Atomically replaces `path` with `bytes` through `<path>.tmp`,
/// calling `probe` after each [`StoreStage`]. An `Err` from the probe
/// stops the write right there, as a crash would, and is returned.
///
/// # Errors
///
/// Filesystem diagnostics, or the probe's error.
pub fn write_staged(
    path: &Path,
    bytes: &[u8],
    mut probe: impl FnMut(StoreStage) -> Result<(), String>,
) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp).map_err(|e| format!("create {tmp:?}: {e}"))?;
    f.write_all(bytes).map_err(|e| format!("write {tmp:?}: {e}"))?;
    f.sync_all().map_err(|e| format!("sync {tmp:?}: {e}"))?;
    drop(f);
    probe(StoreStage::Tmp)?;
    fs::rename(&tmp, path).map_err(|e| format!("rename {tmp:?}: {e}"))?;
    probe(StoreStage::Rename)
}

/// Removes every `*.tmp` file directly under `dir` — the debris of
/// writes that died between tmp and rename. Returns the count. Call on
/// open, never while writers are active.
pub fn sweep_tmp(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        .filter(|e| fs::remove_file(e.path()).is_ok())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_frames_round_trip_and_refuse_every_defect() {
        let mut f = frame(b"TEST", 3, 5);
        f.extend_from_slice(b"hello");
        let sealed = seal(f);
        assert_eq!(sealed.len(), FRAME_OVERHEAD + 5);
        assert_eq!(unseal(&sealed, b"TEST", 3), Some(&b"hello"[..]));
        assert_eq!(unseal(&seal(frame(b"TEST", 3, 0)), b"TEST", 3), Some(&b""[..]));
        assert!(unseal(&sealed, b"TEST", 2).is_none(), "other version");
        assert!(unseal(&sealed, b"TSET", 3).is_none(), "other magic");
        for cut in 0..sealed.len() {
            assert!(unseal(&sealed[..cut], b"TEST", 3).is_none(), "truncated to {cut}");
        }
        for at in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[at] ^= 0x10;
            assert!(unseal(&bad, b"TEST", 3).is_none(), "bit flip at {at}");
        }
    }
}
