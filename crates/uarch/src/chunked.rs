//! Zero-initialised tables whose copies move only the chunks written.

use std::ops::{Deref, DerefMut};

/// Bytes per tracked chunk: one host page.
const CHUNK_BYTES: usize = 4096;

/// What copying a model moves, against what a dense copy of the same
/// storage would move.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyBytes {
    /// Bytes a copy moves.
    pub copied: usize,
    /// Bytes of the whole storage.
    pub dense: usize,
}

impl std::ops::Add for CopyBytes {
    type Output = CopyBytes;

    fn add(self, rhs: CopyBytes) -> CopyBytes {
        CopyBytes {
            copied: self.copied + rhs.copied,
            dense: self.dense + rhs.dense,
        }
    }
}

impl std::iter::Sum for CopyBytes {
    fn sum<I: Iterator<Item = CopyBytes>>(iter: I) -> CopyBytes {
        iter.fold(CopyBytes::default(), |a, b| a + b)
    }
}

/// A zero-initialised table that remembers which 4 KiB chunks have been
/// written. Its owner calls [`ChunkedVec::mark`] for every element it makes
/// non-zero from zero; any later write to that element (a modification, a
/// zeroing) lands in a chunk already marked. A clear bit therefore proves
/// its chunk all zero, so a copy starts from zeroed storage — which the
/// allocator maps lazily — and moves only the marked chunks.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ChunkedVec<T> {
    items: Vec<T>,
    /// One bit per chunk of `items`.
    filled: Vec<u64>,
}

impl<T: Copy + Default> ChunkedVec<T> {
    /// Elements per chunk.
    const PER_CHUNK: usize = CHUNK_BYTES / std::mem::size_of::<T>();

    /// `len` zero elements, no chunk marked.
    pub(crate) fn new(len: usize) -> Self {
        ChunkedVec {
            items: vec![T::default(); len],
            filled: vec![0; len.div_ceil(Self::PER_CHUNK).div_ceil(64)],
        }
    }

    /// Records that the element at `index` may be non-zero.
    #[inline]
    pub(crate) fn mark(&mut self, index: usize) {
        let chunk = index / Self::PER_CHUNK;
        self.filled[chunk / 64] |= 1 << (chunk % 64);
    }

    /// The elements of `chunk` in a table of `len`.
    fn chunk_range(chunk: usize, len: usize) -> std::ops::Range<usize> {
        chunk * Self::PER_CHUNK..((chunk + 1) * Self::PER_CHUNK).min(len)
    }

    /// Bytes a copy of this table moves, and the table's whole size.
    pub(crate) fn copy_bytes(&self) -> CopyBytes {
        let copied = marked(self.filled.iter().copied())
            .map(|chunk| Self::chunk_range(chunk, self.items.len()).len())
            .sum::<usize>();
        CopyBytes {
            copied: copied * std::mem::size_of::<T>(),
            dense: self.items.len() * std::mem::size_of::<T>(),
        }
    }
}

/// The chunk indices whose bits are set in `words`, ascending.
fn marked(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

impl<T: Copy + Default> Clone for ChunkedVec<T> {
    fn clone(&self) -> Self {
        let mut copy = ChunkedVec::new(self.items.len());
        copy.clone_from(self);
        copy
    }

    /// Copies the chunks marked in `source` and zeroes those marked only
    /// here; chunks marked in neither are zero on both sides already.
    fn clone_from(&mut self, source: &Self) {
        if self.items.len() != source.items.len() {
            *self = ChunkedVec::new(source.items.len());
        }
        let len = self.items.len();
        let either = self.filled.iter().zip(&source.filled);
        for chunk in marked(either.map(|(mine, theirs)| mine | theirs)) {
            let range = Self::chunk_range(chunk, len);
            if source.filled[chunk / 64] & (1 << (chunk % 64)) != 0 {
                self.items[range.clone()].copy_from_slice(&source.items[range]);
            } else {
                self.items[range].fill(T::default());
            }
        }
        self.filled.copy_from_slice(&source.filled);
    }
}

impl<T> Deref for ChunkedVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items
    }
}

impl<T> DerefMut for ChunkedVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every element outside the marked chunks is zero.
    fn unmarked_are_zero(v: &ChunkedVec<u32>) -> bool {
        (0..v.len().div_ceil(ChunkedVec::<u32>::PER_CHUNK))
            .filter(|&c| v.filled[c / 64] & (1 << (c % 64)) == 0)
            .all(|c| {
                v[ChunkedVec::<u32>::chunk_range(c, v.len())]
                    .iter()
                    .all(|&x| x == 0)
            })
    }

    #[test]
    fn copies_move_marked_chunks_and_zero_stale_ones() {
        // 2.5 chunks of u32: the last chunk is short.
        let mut a = ChunkedVec::<u32>::new(2560);
        a[5] = 7;
        a.mark(5);
        a[2559] = 9;
        a.mark(2559);
        assert_eq!(
            a.copy_bytes(),
            CopyBytes {
                copied: 4096 + 512 * 4,
                dense: 2560 * 4
            }
        );
        let b = a.clone();
        assert_eq!(b, a);

        let mut c = ChunkedVec::<u32>::new(2560);
        c[1500] = 3;
        c.mark(1500);
        c.clone_from(&a);
        assert_eq!(c, a, "the chunk marked only in the destination is zeroed");
        assert!(unmarked_are_zero(&c));

        let mut d = ChunkedVec::<u32>::new(10);
        d.clone_from(&a);
        assert_eq!(d, a, "a different length reallocates");
    }

    #[test]
    fn marked_lists_set_bits_in_order() {
        let bits = [0b1010, 1 << 63];
        assert_eq!(
            marked(bits.into_iter()).collect::<Vec<_>>(),
            vec![1, 3, 127]
        );
    }
}
