//! # lp-store — persistent content-addressed artifact store
//!
//! LoopPoint's front half (record → replay/DCFG → BBV slicing → clustering
//! → checkpoint generation) is deterministic in the program, the workload
//! scale, and the analysis configuration. That makes its outputs perfect
//! cache material: key them by a stable content hash and a design-space
//! sweep that varies only simulator parameters can skip the entire analysis
//! on every configuration after the first.
//!
//! This crate is the storage layer, std-only and dependency-free (except
//! `lp-obs` for metrics/spans):
//!
//! * [`hash`] — SipHash-2-4, streaming, plus a 128-bit composite digest;
//! * [`codec`] — an LZ77-with-varints compression codec tuned for
//!   checkpoint payloads (zero pages, repeated records);
//! * [`container`] — the versioned sealed envelope (magic, version, kind,
//!   lengths, whole-file checksum trailer);
//! * [`store`] — the [`Store`] API: crash-safe atomic writes, quarantine
//!   of corrupt artifacts, byte-budget LRU eviction, and hit/miss/corrupt
//!   counters mirrored into `lp-obs`. The directory is the only index.
//!
//! What this crate deliberately does **not** know: how to encode a pinball
//! or an analysis result. Callers (`looppoint::persist`) bring their own
//! payload encodings; the store deals in opaque bytes plus an
//! [`ArtifactKind`] tag so a mixed-up file can never be decoded as the
//! wrong thing.
//!
//! ```
//! use lp_store::{ArtifactKind, Store, StoreKeyBuilder};
//!
//! let dir = std::env::temp_dir().join(format!("lp-store-doc-{}", std::process::id()));
//! let store = Store::open(&dir, lp_obs::Observer::disabled())?;
//!
//! let mut kb = StoreKeyBuilder::new("analysis/v1");
//! kb.field_str("program", "demo").field_u64("nthreads", 4);
//! let key = kb.finish();
//!
//! assert!(store.load(&key, ArtifactKind::Analysis).is_none()); // miss
//! store.save(&key, ArtifactKind::Analysis, b"expensive result")?;
//! assert_eq!(
//!     store.load(&key, ArtifactKind::Analysis).as_deref(),
//!     Some(&b"expensive result"[..])                           // hit
//! );
//! assert_eq!(store.stats().hits, 1);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod container;
pub mod hash;
pub mod store;

pub use container::{ArtifactKind, Container, ContainerError};
pub use hash::{checksum64, digest128, Hash64};
pub use store::{Store, StoreConfig, StoreKey, StoreKeyBuilder, StoreStats};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn codec_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let c = crate::codec::compress(&data);
            let d = crate::codec::decompress(&c, data.len()).unwrap();
            prop_assert_eq!(d, data);
        }

        #[test]
        fn container_roundtrips_and_rejects_flips(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            flip in any::<u16>(),
        ) {
            let sealed = crate::container::seal(crate::ArtifactKind::Checkpoints, &data);
            let opened = crate::container::open(&sealed, crate::ArtifactKind::Checkpoints).unwrap();
            prop_assert_eq!(&opened.payload, &data);
            let pos = (flip as usize) % sealed.len();
            let mut bad = sealed.clone();
            bad[pos] ^= 0x01;
            prop_assert!(crate::container::open(&bad, crate::ArtifactKind::Checkpoints).is_err());
        }
    }
}
