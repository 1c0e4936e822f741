//! Variable environments.
//!
//! The runtime's FLWOR tuples are variable bindings (§5.1 notes that
//! "XQuery's FLWOR variable bindings imply support for tuples internally
//! in the runtime"). [`Env`] is the paper's Figure 4 *array tuple* at IR
//! granularity: a fixed-width copy-on-write frame whose slots were
//! assigned at compile time by the frame-layout pass, so "the fields of
//! a tuple can be directly accessed" — a variable read is an indexed
//! load, cloning a tuple is one refcount bump, and binding copies one
//! cell per slot instead of allocating a name node.
//!
//! Cells are specialized for cardinality: the overwhelmingly common
//! single-item binding (a `for` item, a SQL column value) is stored
//! inline with **zero** heap allocation; only genuine multi-item
//! sequences go behind an `Arc`.

use crate::val::Val;
use aldsp_xdm::item::{Item, Sequence};
use std::sync::Arc;

/// One frame cell. `Unbound` (no binding) is distinct from `Empty`
/// (bound to the empty sequence): reading the former is a plan error,
/// the latter a legal `()`.
#[derive(Clone, Default)]
enum Cell {
    #[default]
    Unbound,
    Empty,
    /// The hot case: a singleton sequence, held inline (no allocation).
    One(Item),
    Many(Arc<Sequence>),
}

impl Cell {
    fn of(mut value: Sequence) -> Cell {
        match value.len() {
            0 => Cell::Empty,
            1 => Cell::One(value.pop().expect("len 1")),
            _ => Cell::Many(Arc::new(value)),
        }
    }

    #[inline]
    fn as_slice(&self) -> Option<&[Item]> {
        match self {
            Cell::Unbound => None,
            Cell::Empty => Some(&[]),
            Cell::One(item) => Some(std::slice::from_ref(item)),
            Cell::Many(s) => Some(s.as_slice()),
        }
    }
}

impl From<Val> for Cell {
    /// A shared sequence lands in the cell as the same `Arc` — no item
    /// is copied.
    fn from(value: Val) -> Cell {
        match value {
            Val::Empty => Cell::Empty,
            Val::One(item) => Cell::One(item),
            Val::Shared(s) => Cell::Many(s),
            Val::Owned(s) => Cell::of(s),
        }
    }
}

/// A fixed-width copy-on-write tuple frame. Rebinding copies the cell
/// array (pointer-sized cells plus one inline `Item`) and shares every
/// untouched sequence with the parent tuple.
#[derive(Clone, Default)]
pub struct Env {
    slots: Arc<[Cell]>,
}

impl Env {
    /// The empty (zero-width) environment.
    pub fn empty() -> Env {
        Env::default()
    }

    /// An all-unbound frame of `width` slots.
    pub fn with_width(width: usize) -> Env {
        Env {
            slots: std::iter::repeat_with(Cell::default).take(width).collect(),
        }
    }

    /// The frame width (number of slots).
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// Read a slot. Out-of-range slots (including the compiler's
    /// `NO_SLOT` sentinel) read as unbound.
    #[inline]
    pub fn get_slot(&self, slot: u32) -> Option<&[Item]> {
        self.slots.get(slot as usize)?.as_slice()
    }

    /// Read a slot as a shareable [`Val`]: `Many` hands back the `Arc`
    /// (one refcount bump, no item copy) and only the singleton clones
    /// its inline item. `None` when unbound or out of range.
    #[inline]
    pub fn slot_value(&self, slot: u32) -> Option<Val> {
        match self.slots.get(slot as usize)? {
            Cell::Unbound => None,
            Cell::Empty => Some(Val::Empty),
            Cell::One(item) => Some(Val::One(item.clone())),
            Cell::Many(s) => Some(Val::Shared(Arc::clone(s))),
        }
    }

    /// Rebuild the frame with `cell_at(j)` replacing slot `j` where it
    /// returns `Some` — a single allocation (the iterator's length is
    /// trusted, so `collect` fills the new `Arc<[Cell]>` in place,
    /// skipping the writer path's intermediate `Vec`).
    #[inline]
    fn rebind_with(&self, mut cell_at: impl FnMut(usize) -> Option<Cell>) -> Env {
        Env {
            slots: self
                .slots
                .iter()
                .enumerate()
                .map(|(j, c)| cell_at(j).unwrap_or_else(|| c.clone()))
                .collect(),
        }
    }

    /// Bind one slot, copy-on-write: shares every other cell with
    /// `self`. Grows the frame if `slot` is beyond the current width.
    /// A singleton value allocates nothing but the cell array — the hot
    /// path of per-item `for` iteration.
    pub fn bind_slot(&self, slot: u32, value: Val) -> Env {
        self.with_cell(slot, value.into())
    }

    fn with_cell(&self, slot: u32, cell: Cell) -> Env {
        if slot as usize >= self.slots.len() {
            let mut w = self.writer();
            *w.cell(slot) = cell;
            return w.finish();
        }
        let mut cell = Some(cell);
        self.rebind_with(|j| {
            if j == slot as usize {
                Some(cell.take().expect("slot visited once"))
            } else {
                None
            }
        })
    }

    /// Bind one slot, consuming the frame: when this tuple is the sole
    /// owner of its cell array (the common pipeline shape — a source
    /// row's frame flows into a `let` and is dropped as soon as the
    /// extended frame exists), the write happens in place with no
    /// allocation. A shared frame falls back to the copy-on-write
    /// rebind, so observable semantics are identical.
    pub fn bind_val_owned(mut self, slot: u32, value: Val) -> Env {
        match Arc::get_mut(&mut self.slots) {
            Some(cells) if (slot as usize) < cells.len() => {
                cells[slot as usize] = value.into();
                self
            }
            _ => self.with_cell(slot, value.into()),
        }
    }

    /// Bind `slots[k]` to `value_at(k)` for every `k` (`None` = the
    /// empty sequence) in one allocation — the SQL row-bind shape,
    /// which writes a handful of column slots per source row.
    pub fn bind_indexed(
        &self,
        slots: &[u32],
        mut value_at: impl FnMut(usize) -> Option<Item>,
    ) -> Env {
        if slots.iter().any(|&s| s as usize >= self.slots.len()) {
            let mut w = self.writer();
            for (k, &s) in slots.iter().enumerate() {
                match value_at(k) {
                    Some(item) => w.set_item(s, item),
                    None => w.set_empty(s),
                }
            }
            return w.finish();
        }
        self.rebind_with(|j| {
            let k = slots.iter().position(|&s| s as usize == j)?;
            Some(match value_at(k) {
                Some(item) => Cell::One(item),
                None => Cell::Empty,
            })
        })
    }

    /// Start a multi-slot rebind: one copy of the cell array, any
    /// number of writes, then [`EnvWriter::finish`].
    pub fn writer(&self) -> EnvWriter {
        EnvWriter {
            slots: self.slots.to_vec(),
        }
    }

    /// Number of bound slots (diagnostics).
    pub fn depth(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s, Cell::Unbound))
            .count()
    }
}

/// An in-progress copy-on-write rebind of an [`Env`] — the single-copy
/// path for operators that bind several columns per tuple (SQL row
/// binds, group-by emission).
pub struct EnvWriter {
    slots: Vec<Cell>,
}

impl EnvWriter {
    fn cell(&mut self, slot: u32) -> &mut Cell {
        let i = slot as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, Cell::default);
        }
        &mut self.slots[i]
    }

    /// Write one slot (growing the frame if needed).
    pub fn set(&mut self, slot: u32, value: Sequence) {
        *self.cell(slot) = Cell::of(value);
    }

    /// Write a singleton without building a sequence.
    pub fn set_item(&mut self, slot: u32, item: Item) {
        *self.cell(slot) = Cell::One(item);
    }

    /// Write the empty sequence (bound, but `()`).
    pub fn set_empty(&mut self, slot: u32) {
        *self.cell(slot) = Cell::Empty;
    }

    /// Freeze into an immutable frame.
    pub fn finish(self) -> Env {
        Env {
            slots: self.slots.into(),
        }
    }
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bound: Vec<String> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_slice().map(|_| i.to_string()))
            .collect();
        write!(
            f,
            "Env[{}/{}: {}]",
            bound.len(),
            self.width(),
            bound.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_bind_lookup() {
        let e = Env::with_width(3);
        assert!(e.get_slot(0).is_none());
        let e1 = e.bind_slot(0, Val::One(Item::int(1)));
        let e2 = e1.bind_slot(2, Val::One(Item::int(2)));
        assert_eq!(e1.get_slot(0), Some(&[Item::int(1)][..]));
        assert_eq!(e2.get_slot(0), Some(&[Item::int(1)][..]));
        assert_eq!(e2.get_slot(2), Some(&[Item::int(2)][..]));
        // e1 unaffected by the later bind
        assert!(e1.get_slot(2).is_none());
        assert_eq!(e2.depth(), 2);
    }

    #[test]
    fn rebind_is_copy_on_write() {
        let base = Env::with_width(2).bind_slot(0, Val::One(Item::int(1)));
        let b1 = base.bind_slot(1, Val::One(Item::int(2)));
        let b2 = base.bind_slot(1, Val::One(Item::int(3)));
        assert_eq!(b1.get_slot(1), Some(&[Item::int(2)][..]));
        assert_eq!(b2.get_slot(1), Some(&[Item::int(3)][..]));
        assert_eq!(b1.get_slot(0), b2.get_slot(0));
    }

    #[test]
    fn empty_binding_is_bound_not_unbound() {
        let e = Env::with_width(2).bind_slot(0, Val::Empty);
        assert_eq!(e.get_slot(0), Some(&[][..]));
        assert!(e.get_slot(1).is_none());
        assert_eq!(e.depth(), 1);
    }

    #[test]
    fn out_of_range_reads_unbound_and_writes_grow() {
        let e = Env::empty();
        assert!(e.get_slot(5).is_none());
        assert!(e.get_slot(u32::MAX).is_none());
        let e1 = e.bind_slot(2, Val::One(Item::int(9)));
        assert_eq!(e1.width(), 3);
        assert_eq!(e1.get_slot(2), Some(&[Item::int(9)][..]));
    }

    #[test]
    fn writer_batches_multiple_binds() {
        let mut w = Env::with_width(3).writer();
        w.set(0, vec![Item::int(1), Item::int(7)]);
        w.set_item(1, Item::int(2));
        w.set_empty(2);
        let e = w.finish();
        assert_eq!(e.get_slot(0), Some(&[Item::int(1), Item::int(7)][..]));
        assert_eq!(e.get_slot(1), Some(&[Item::int(2)][..]));
        assert_eq!(e.get_slot(2), Some(&[][..]));
    }

    #[test]
    fn owned_bind_writes_in_place_only_when_unshared() {
        let cells = |e: &Env| e.slots.as_ptr();
        // sole owner: same cell array before and after
        let e = Env::with_width(2).bind_slot(0, Val::One(Item::int(1)));
        let before = cells(&e);
        let e = e.bind_val_owned(1, Val::One(Item::int(2)));
        assert_eq!(cells(&e), before);
        assert_eq!(e.get_slot(1), Some(&[Item::int(2)][..]));
        // shared: the write goes to a copy and the parent keeps its value
        let parent = e.clone();
        let child = e.bind_val_owned(1, Val::One(Item::int(3)));
        assert_ne!(cells(&child), cells(&parent));
        assert_eq!(parent.get_slot(1), Some(&[Item::int(2)][..]));
        assert_eq!(child.get_slot(1), Some(&[Item::int(3)][..]));
        assert_eq!(child.get_slot(0), parent.get_slot(0));
        // a shared sequence lands in the cell as the same allocation
        let seq = Arc::new(vec![Item::int(7), Item::int(8)]);
        let e = Env::with_width(1).bind_val_owned(0, Val::Shared(Arc::clone(&seq)));
        match e.slot_value(0) {
            Some(Val::Shared(got)) => assert!(Arc::ptr_eq(&got, &seq)),
            other => panic!("expected the shared sequence, got {other:?}"),
        }
        // beyond the width, the owned bind grows like the borrowed one
        let e = Env::empty().bind_val_owned(2, Val::Empty);
        assert_eq!((e.width(), e.get_slot(2)), (3, Some(&[][..])));
    }
}
