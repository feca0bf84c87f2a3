//! Dense per-PC tables: the hash-free replacement for `HashMap<Pc, T>` on
//! per-instruction paths.

use crate::addr::{ImageId, Pc};
use crate::program::Program;

/// A map from [`Pc`] to `T`, laid out as one flat slot per instruction of a
/// [`Program`] (images back to back, offsets within them).
///
/// Observers that keep state per PC (loop-header counts, marker agendas,
/// block-entry counters) look it up once per retired instruction; indexing
/// a slot is two bounds checks and an add where a `HashMap` pays a SipHash.
/// The table is sized once from the program and never grows: a PC outside
/// the program (an unknown image, an offset past an image's end,
/// [`Pc::INVALID`]) has no slot — lookups return `None` and inserts are
/// refused — so a wild PC can never panic an observer or inflate it.
/// Iteration is in ascending PC order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcTable<T> {
    /// First slot of each image, plus the total as a trailing sentinel.
    image_starts: Vec<u32>,
    slots: Vec<Option<T>>,
}

impl<T> PcTable<T> {
    /// Creates an empty table with one slot per instruction of `program`.
    pub fn new(program: &Program) -> Self {
        let mut image_starts = Vec::with_capacity(program.images().len() + 1);
        let mut total = 0u32;
        for image in program.images() {
            image_starts.push(total);
            total += u32::try_from(image.len()).expect("image fits the 32-bit offset space");
        }
        image_starts.push(total);
        PcTable {
            image_starts,
            slots: (0..total).map(|_| None).collect(),
        }
    }

    /// A table holding `f(pc)` wherever it is `Some`, asked once for every
    /// PC of `program`.
    pub fn from_fn(program: &Program, f: impl FnMut(Pc) -> Option<T>) -> Self {
        let mut table = Self::new(program);
        table.slots = slot_pcs(&table.image_starts).map(f).collect();
        table
    }

    /// The slot of `pc`, or `None` when `pc` names no instruction of the
    /// program the table was sized from.
    #[inline]
    fn slot(&self, pc: Pc) -> Option<usize> {
        let image = usize::from(pc.image.0);
        let start = *self.image_starts.get(image)?;
        let end = *self.image_starts.get(image + 1)?;
        (pc.offset < end - start).then(|| (start + pc.offset) as usize)
    }

    /// The value stored for `pc`, if any.
    #[inline]
    pub fn get(&self, pc: Pc) -> Option<&T> {
        self.slots[self.slot(pc)?].as_ref()
    }

    /// Mutable access to the value stored for `pc`, if any.
    #[inline]
    pub fn get_mut(&mut self, pc: Pc) -> Option<&mut T> {
        let slot = self.slot(pc)?;
        self.slots[slot].as_mut()
    }

    /// The value for `pc`, inserting `default()` first if there is none
    /// (`HashMap::entry(..).or_insert_with(..)`). Returns `None`, storing
    /// nothing, when `pc` lies outside the program.
    #[inline]
    pub fn get_or_insert_with(&mut self, pc: Pc, default: impl FnOnce() -> T) -> Option<&mut T> {
        let slot = self.slot(pc)?;
        Some(self.slots[slot].get_or_insert_with(default))
    }

    /// All `(pc, value)` pairs, in ascending PC order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &T)> {
        slot_pcs(&self.image_starts)
            .zip(&self.slots)
            .filter_map(|(pc, v)| Some((pc, v.as_ref()?)))
    }

    /// All `(pc, value)` pairs with mutable values, in ascending PC order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Pc, &mut T)> {
        slot_pcs(&self.image_starts)
            .zip(&mut self.slots)
            .filter_map(|(pc, v)| Some((pc, v.as_mut()?)))
    }
}

/// The PC of every slot, in slot order.
fn slot_pcs(image_starts: &[u32]) -> impl Iterator<Item = Pc> + '_ {
    image_starts.windows(2).enumerate().flat_map(|(image, w)| {
        (0..w[1] - w[0]).map(move |offset| Pc::new(ImageId(image as u16), offset))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::Reg;

    fn two_image_program() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.new_label();
        let mut c = pb.main_code();
        c.li(Reg::R1, 1);
        c.call(f);
        c.halt();
        c.finish();
        let mut l = pb.library_code("lib");
        l.bind(f);
        l.nop();
        l.ret();
        l.finish();
        pb.finish()
    }

    #[test]
    fn insert_get_and_ordered_iteration() {
        let p = two_image_program();
        let mut t: PcTable<u64> = PcTable::new(&p);
        assert_eq!(t.iter().count(), 0);
        let lib_pc = Pc::new(ImageId(1), 1);
        let main_pc = p.entry_main().next();
        *t.get_or_insert_with(lib_pc, || 0).unwrap() += 7;
        *t.get_or_insert_with(main_pc, || 0).unwrap() += 1;
        *t.get_or_insert_with(main_pc, || 100).unwrap() += 1;
        assert_eq!(t.get(main_pc), Some(&2));
        assert_eq!(t.get(lib_pc), Some(&7));
        assert_eq!(t.get(p.entry_main()), None, "in range but never set");
        let filled = PcTable::from_fn(&p, |pc| t.get(pc).copied());
        assert_eq!(filled, t);
        *t.get_mut(lib_pc).unwrap() = 9;
        let all: Vec<(Pc, u64)> = t.iter().map(|(pc, &v)| (pc, v)).collect();
        assert_eq!(all, vec![(main_pc, 2), (lib_pc, 9)]);
        for (_, v) in t.iter_mut() {
            *v = 0;
        }
        assert!(t.iter().all(|(_, &v)| v == 0));
    }

    #[test]
    fn pcs_outside_the_program_have_no_slot() {
        let p = two_image_program();
        let mut t: PcTable<u8> = PcTable::new(&p);
        let main_len = p.images()[0].len() as u32;
        let lib_len = p.images()[1].len() as u32;
        for pc in [
            Pc::INVALID,
            Pc::new(ImageId(2), 0),
            Pc::new(ImageId(0), main_len),
            Pc::new(ImageId(1), lib_len),
            Pc::new(ImageId(1), u32::MAX),
        ] {
            assert!(t.get_or_insert_with(pc, || 1).is_none(), "{pc}");
            assert!(t.get(pc).is_none() && t.get_mut(pc).is_none(), "{pc}");
        }
        assert_eq!(t.iter().count(), 0);
        // The last slot of the last image is real.
        assert!(t
            .get_or_insert_with(Pc::new(ImageId(1), lib_len - 1), || 1)
            .is_some());
    }
}
