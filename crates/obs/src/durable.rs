//! Durable-file primitives shared by bf4's three checksummed logs — the
//! engine's query-cache store, the daemon's time series ([`crate::tsdb`])
//! and the shim journal:
//!
//! * [`fnv1a`]/[`fnv1a_update`] — the one FNV-1a hash. Each input byte
//!   multiplies the state by an odd prime, a bijection on `u64`, so any
//!   single-byte change always changes the hash;
//! * [`seal`]/[`unseal`] — the `payload #<16 hex>` line checksum, verified
//!   canonically;
//! * [`persist_bytes`] — crash-safe whole-file replace.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// FNV-1a offset basis: the state of an empty hash, and the seed for
/// streaming with [`fnv1a_update`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// Fold more bytes into a running FNV-1a state.
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Seal a payload into its on-disk line, `payload #<16 lowercase hex>`
/// (no trailing newline).
pub fn seal(payload: &str) -> String {
    format!("{payload} #{:016x}", fnv1a(payload.as_bytes()))
}

/// Split a sealed line into its payload iff the checksum verifies.
/// `None` = corrupt.
///
/// The checksum field must be *canonical*: exactly 16 lowercase hex
/// chars. A permissive parse (`from_str_radix` accepts uppercase and a
/// sign) would let some single-bit flips — e.g. `b` → `B` — produce a
/// different line that still verifies.
pub fn unseal(line: &str) -> Option<&str> {
    let (payload, sum) = line.rsplit_once(" #")?;
    if sum.len() != 16 || !sum.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    let sum = u64::from_str_radix(sum, 16).ok()?;
    (sum == fnv1a(payload.as_bytes())).then_some(payload)
}

/// The temp file [`persist_bytes`] writes before renaming it over `path`:
/// `.<name>.tmp-<pid>` in the same directory, so the rename never
/// crosses a filesystem.
pub fn temp_path(path: &Path) -> PathBuf {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    dir_of(path).join(format!(".{name}.tmp-{}", std::process::id()))
}

fn dir_of(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Crash-safe full rewrite of `buf` to `path`: write [`temp_path`], fsync
/// it with `sync` (normally [`File::sync_all`]; callers wrap it to time
/// the fsync), rename it over `path`, then fsync the containing directory
/// — the rename is not durable on all filesystems until the directory's
/// metadata itself reaches disk. A crash at any point leaves either the
/// old file or the new one, never a torn mix.
pub fn persist_bytes(
    buf: &[u8],
    path: &Path,
    sync: impl FnOnce(&File) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = temp_path(path);
    let mut f = File::create(&tmp)?;
    f.write_all(buf)?;
    sync(&f)?;
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    File::open(dir_of(path))?.sync_all()?;
    Ok(())
}
