//! An inline-first vector for the short lists every launch builds.
//!
//! A kernel descriptor's argument list, a kernel body's access streams and
//! a tensor's shape are a handful of `Copy` elements built per operator
//! and dropped a few calls later; as `Vec`s they were a third of the
//! framework's heap traffic. An [`InlineVec`] keeps the first `N`
//! elements in the value itself and moves to a heap `Vec` only past that,
//! where it costs what a `Vec` costs. Safe code throughout: the inline
//! buffer is a plain `[T; N]` of defaults, which is why `T: Copy +
//! Default`.
//!
//! The values that hold one are built by by-value builder chains
//! (`KernelDesc::new(..).arg(..).arg(..).body(..)`), so the layout is
//! chosen for what the optimizer can see through: plain fields rather
//! than an enum, and the spill path out of line, leave a chain of inlined
//! `push`es as stores into one stack slot instead of a copy of the whole
//! descriptor per link.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector of `Copy` elements holding up to `N` of them inline.
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    /// Elements held: `buf[..len]` up to `N`, all of `spill` past it.
    len: usize,
    buf: [T; N],
    /// Empty — no heap block — until the `N + 1`-th element arrives.
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector; allocates nothing.
    #[inline]
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            buf: [T::default(); N],
            spill: Vec::new(),
        }
    }

    /// Appends `value`, spilling to the heap at the `N + 1`-th element.
    #[inline]
    pub fn push(&mut self, value: T) {
        match self.buf.get_mut(self.len) {
            Some(slot) => *slot = value,
            None => self.push_spilled(value),
        }
        self.len += 1;
    }

    /// The `N + 1`-th push moves the inline elements over first.
    #[cold]
    #[inline(never)]
    fn push_spilled(&mut self, value: T) {
        if self.len == N {
            self.spill.reserve(2 * N);
            self.spill.extend_from_slice(&self.buf);
        }
        self.spill.push(value);
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self.buf.get(..self.len) {
            Some(inline) => inline,
            None => &self.spill,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self.buf.get_mut(..self.len) {
            Some(inline) => inline,
            None => &mut self.spill,
        }
    }
}

/// Adopts `vec`: copied inline when it fits, kept as the heap block it
/// already is otherwise.
impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(vec: Vec<T>) -> Self {
        if vec.len() <= N {
            InlineVec::from(vec.as_slice())
        } else {
            InlineVec {
                len: vec.len(),
                buf: [T::default(); N],
                spill: vec,
            }
        }
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(slice: &[T]) -> Self {
        if slice.len() <= N {
            let mut out = InlineVec::new();
            out.buf[..slice.len()].copy_from_slice(slice);
            out.len = slice.len();
            out
        } else {
            InlineVec::from(slice.to_vec())
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = InlineVec::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a mut InlineVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

/// Content equality; the unused tail of an inline buffer never counts.
impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Four = InlineVec<u32, 4>;

    fn spilled(v: &Four) -> bool {
        !v.spill.is_empty()
    }

    #[test]
    fn spills_at_the_n_plus_first_push_and_keeps_order() {
        let mut v = Four::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert!(!spilled(&v), "N elements fit inline");
        assert_eq!(*v, [0, 1, 2, 3]);
        v.push(4);
        assert!(spilled(&v), "the N+1-th moves to the heap");
        assert_eq!(*v, [0, 1, 2, 3, 4]);
        for i in 5..100 {
            v.push(i);
        }
        assert_eq!(v.len(), 100);
        assert!(v.iter().copied().eq(0..100), "iteration is push order");
        let by_ref: Vec<u32> = (&v).into_iter().copied().collect();
        assert_eq!(by_ref, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clone_and_equality_hold_across_the_boundary() {
        let inline: Four = (0..4).collect();
        let over: Four = (0..5).collect();
        assert_eq!(inline.clone(), inline);
        assert_eq!(over.clone(), over);
        assert_ne!(inline, over);
        // A clone is a separate value on both sides of the boundary.
        let mut grown = inline.clone();
        grown.push(4);
        assert_eq!(grown, over, "spilled by push == spilled by collect");
        assert_eq!(*inline, [0, 1, 2, 3], "the original did not move");
        assert_eq!(format!("{over:?}"), "[0, 1, 2, 3, 4]");
    }

    #[test]
    fn vec_round_trips_on_both_sides_of_the_boundary() {
        for len in [0, 1, 4, 5, 9] {
            let vec: Vec<u32> = (0..len).collect();
            let v = Four::from(vec.clone());
            assert_eq!(spilled(&v), len > 4, "len {len}");
            assert_eq!(v.to_vec(), vec);
            assert_eq!(Four::from(vec.as_slice()), v);
        }
    }

    #[test]
    fn elements_are_mutable_in_place() {
        let mut v: Four = (0..3).collect();
        *v.last_mut().unwrap() = 9;
        for x in &mut v {
            *x += 1;
        }
        assert_eq!(*v, [1, 2, 10]);
        let mut over: Four = (0..6).collect();
        over[5] = 50;
        assert_eq!(over[5], 50);
    }

    #[test]
    fn an_empty_vector_is_the_default_and_allocates_nothing() {
        let v = Four::default();
        assert!(!spilled(&v));
        assert_eq!(v.len(), 0);
        assert_eq!(v, Four::new());
    }
}
