//! The versioned on-disk artifact container.
//!
//! Every stored artifact is wrapped in one self-describing binary envelope:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "LPAC"
//! 4       4     format version (u32 LE)
//! 8       2     payload kind   (u16 LE, see ArtifactKind)
//! 10      1     codec          (0 = raw, 1 = LZ)
//! 11      1     reserved (0)
//! 12      8     raw (uncompressed) payload length (u64 LE)
//! 20      8     stored payload length (u64 LE)
//! 28      n     payload bytes
//! 28+n    8     SipHash-2-4 checksum of bytes [0, 28+n) (u64 LE)
//! ```
//!
//! The checksum covers header *and* payload, so a flipped byte anywhere in
//! the file — including in the kind or length fields — is detected before
//! any payload byte is interpreted.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::codec::{self, CodecError};
use crate::hash::Hash64;

/// Container magic bytes.
pub const MAGIC: [u8; 4] = *b"LPAC";
/// Current container format version.
pub const FORMAT_VERSION: u32 = 1;
/// Header length in bytes (before the payload).
pub const HEADER_LEN: usize = 28;
/// Checksum trailer length in bytes.
pub const TRAILER_LEN: usize = 8;

/// What an artifact contains. The discriminants are the on-disk `kind`
/// field and must never be reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ArtifactKind {
    /// A whole-program pinball (`lp_pinball::Pinball::write_to` bytes).
    Pinball = 1,
    /// Analysis metadata: DCFG parts + selected looppoint regions.
    Analysis = 2,
    /// The BBV matrix: the loop-aligned, spin-filtered slice profile.
    BbvMatrix = 3,
    /// Clustering results (assignments, representatives, scores).
    Clustering = 4,
    /// Prepared region checkpoints (machine states + watch counts).
    Checkpoints = 5,
    /// A finished farm job's summary document (terminal pipeline output),
    /// so a restarted daemon serves repeat work without re-simulating.
    JobSummary = 6,
}

impl ArtifactKind {
    /// All defined kinds.
    pub const ALL: [ArtifactKind; 6] = [
        ArtifactKind::Pinball,
        ArtifactKind::Analysis,
        ArtifactKind::BbvMatrix,
        ArtifactKind::Clustering,
        ArtifactKind::Checkpoints,
        ArtifactKind::JobSummary,
    ];

    /// Decodes a kind from its on-disk discriminant.
    pub fn from_u16(v: u16) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| *k as u16 == v)
    }

    /// Decodes a kind from its [`ArtifactKind::tag`] (the inverse; used
    /// by wire paths that name kinds in URLs).
    pub fn from_tag(tag: &str) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Short lowercase tag used in file names and metrics.
    pub fn tag(self) -> &'static str {
        match self {
            ArtifactKind::Pinball => "pinball",
            ArtifactKind::Analysis => "analysis",
            ArtifactKind::BbvMatrix => "bbv",
            ArtifactKind::Clustering => "clustering",
            ArtifactKind::Checkpoints => "checkpoints",
            ArtifactKind::JobSummary => "jobsummary",
        }
    }
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Why a container failed to open.
#[derive(Debug)]
pub enum ContainerError {
    /// File shorter than header + trailer.
    TooShort,
    /// Magic bytes mismatch.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Unknown payload kind discriminant.
    BadKind(u16),
    /// Kind in the file differs from the kind requested.
    KindMismatch {
        /// Kind found in the container.
        found: ArtifactKind,
        /// Kind the caller asked for.
        want: ArtifactKind,
    },
    /// Declared payload length disagrees with the file size.
    LengthMismatch,
    /// Checksum trailer does not match the content.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        stored: u64,
        /// Checksum recomputed from the content.
        computed: u64,
    },
    /// Unknown codec byte.
    BadCodec(u8),
    /// The payload failed to decompress.
    Codec(CodecError),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::TooShort => write!(f, "container shorter than header"),
            ContainerError::BadMagic => write!(f, "bad container magic"),
            ContainerError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            ContainerError::BadKind(k) => write!(f, "unknown artifact kind {k}"),
            ContainerError::KindMismatch { found, want } => {
                write!(f, "artifact kind {found} where {want} expected")
            }
            ContainerError::LengthMismatch => write!(f, "container length fields inconsistent"),
            ContainerError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            ContainerError::BadCodec(c) => write!(f, "unknown codec byte {c}"),
            ContainerError::Codec(e) => write!(f, "payload decompression failed: {e}"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// A parsed container.
#[derive(Debug)]
pub struct Container {
    /// Payload kind.
    pub kind: ArtifactKind,
    /// Decompressed payload bytes.
    pub payload: Vec<u8>,
    /// Stored (possibly compressed) payload length.
    pub stored_len: u64,
}

/// Seals `payload` of `kind` into container bytes, compressing when the
/// codec actually shrinks the payload (raw otherwise, so pathological
/// inputs never expand past the fixed framing).
pub fn seal(kind: ArtifactKind, payload: &[u8]) -> Vec<u8> {
    let compressed = codec::compress(payload);
    let (codec_byte, stored): (u8, &[u8]) = if compressed.len() < payload.len() {
        (1, &compressed)
    } else {
        (0, payload)
    };
    let mut out = Vec::with_capacity(HEADER_LEN + stored.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(kind as u16).to_le_bytes());
    out.push(codec_byte);
    out.push(0); // reserved
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&(stored.len() as u64).to_le_bytes());
    out.extend_from_slice(stored);
    let mut h = Hash64::checksum();
    h.update(&out);
    let sum = h.finish();
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Opens container `bytes`, verifying framing and checksum and expecting
/// `want` as the payload kind.
///
/// # Errors
/// Every corruption mode maps to a distinct [`ContainerError`].
pub fn open(bytes: &[u8], want: ArtifactKind) -> Result<Container, ContainerError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(ContainerError::TooShort);
    }
    let (content, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
    let stored_sum = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let mut h = Hash64::checksum();
    h.update(content);
    let computed = h.finish();
    if computed != stored_sum {
        return Err(ContainerError::ChecksumMismatch {
            stored: stored_sum,
            computed,
        });
    }
    if content[0..4] != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let version = u32::from_le_bytes(content[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(ContainerError::BadVersion(version));
    }
    let kind_raw = u16::from_le_bytes(content[8..10].try_into().expect("2 bytes"));
    let kind = ArtifactKind::from_u16(kind_raw).ok_or(ContainerError::BadKind(kind_raw))?;
    if kind != want {
        return Err(ContainerError::KindMismatch { found: kind, want });
    }
    let codec_byte = content[10];
    let raw_len = u64::from_le_bytes(content[12..20].try_into().expect("8 bytes"));
    let stored_len = u64::from_le_bytes(content[20..28].try_into().expect("8 bytes"));
    let stored = &content[HEADER_LEN..];
    if stored.len() as u64 != stored_len {
        return Err(ContainerError::LengthMismatch);
    }
    let payload = match codec_byte {
        0 => {
            if raw_len != stored_len {
                return Err(ContainerError::LengthMismatch);
            }
            stored.to_vec()
        }
        1 => codec::decompress(stored, raw_len as usize).map_err(ContainerError::Codec)?,
        other => return Err(ContainerError::BadCodec(other)),
    };
    Ok(Container {
        kind,
        payload,
        stored_len,
    })
}

/// The raw payload length from the header of the container file at `path`
/// (payload neither read nor verified) — what a directory scan needs.
/// `None` when the file is unreadable, short, or not a container.
pub(crate) fn read_raw_len(path: &Path) -> Option<u64> {
    let mut header = [0u8; HEADER_LEN];
    File::open(path).ok()?.read_exact(&mut header).ok()?;
    if header[0..4] != MAGIC || header[4..8] != FORMAT_VERSION.to_le_bytes() {
        return None;
    }
    Some(u64::from_le_bytes(
        header[12..20].try_into().expect("8 bytes"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip_all_kinds() {
        let payload: Vec<u8> = (0..5000u32).flat_map(|i| (i % 251).to_le_bytes()).collect();
        for kind in ArtifactKind::ALL {
            let sealed = seal(kind, &payload);
            let c = open(&sealed, kind).unwrap();
            assert_eq!(c.kind, kind);
            assert_eq!(c.payload, payload);
        }
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let sealed = seal(ArtifactKind::Pinball, b"some payload bytes some payload");
        for pos in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[pos] ^= 0x40;
            assert!(
                open(&bad, ArtifactKind::Pinball).is_err(),
                "flip at byte {pos} survived"
            );
        }
    }

    #[test]
    fn kind_mismatch_rejected() {
        let sealed = seal(ArtifactKind::Analysis, b"x");
        assert!(matches!(
            open(&sealed, ArtifactKind::Pinball),
            Err(ContainerError::KindMismatch { .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let sealed = seal(ArtifactKind::BbvMatrix, &vec![9u8; 4000]);
        for cut in [0, 5, HEADER_LEN, sealed.len() - 1] {
            assert!(open(&sealed[..cut], ArtifactKind::BbvMatrix).is_err());
        }
    }

    #[test]
    fn incompressible_payload_stored_raw() {
        let mut x = 12345u64;
        let noise: Vec<u8> = (0..300)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let sealed = seal(ArtifactKind::Clustering, &noise);
        assert_eq!(sealed.len(), HEADER_LEN + noise.len() + TRAILER_LEN);
        assert_eq!(
            open(&sealed, ArtifactKind::Clustering).unwrap().payload,
            noise
        );
    }

    #[test]
    fn kind_discriminants_are_stable() {
        assert_eq!(ArtifactKind::Pinball as u16, 1);
        assert_eq!(ArtifactKind::Analysis as u16, 2);
        assert_eq!(ArtifactKind::BbvMatrix as u16, 3);
        assert_eq!(ArtifactKind::Clustering as u16, 4);
        assert_eq!(ArtifactKind::Checkpoints as u16, 5);
        for k in ArtifactKind::ALL {
            assert_eq!(ArtifactKind::from_u16(k as u16), Some(k));
        }
        assert_eq!(ArtifactKind::from_u16(0), None);
        assert_eq!(ArtifactKind::from_u16(99), None);
    }
}
