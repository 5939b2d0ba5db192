//! Tensors: shaped, typed views over caching-allocator blocks.

use crate::dtype::DType;
use accel_sim::{DevicePtr, InlineVec};
use std::fmt;

/// Unique tensor identifier within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TensorId(pub u64);

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A dense tensor. Cheap to clone: it is a handle, not the data, and up to
/// rank four the handle owns no heap block — a clone is a 64-byte copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tensor {
    /// Session-unique id.
    pub id: TensorId,
    /// Dimension extents; ranks above four spill to the heap.
    pub shape: InlineVec<usize, 4>,
    /// Element type.
    pub dtype: DType,
    /// Base device pointer (inside a caching-allocator segment).
    pub ptr: DevicePtr,
    /// Exact byte size (`numel * dtype`), before allocator rounding.
    pub bytes: u64,
}

impl Tensor {
    /// Number of elements.
    pub(crate) fn numel(&self) -> u64 {
        self.shape.iter().map(|&d| d as u64).product()
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn dim(&self, i: usize) -> usize {
        self.shape[i]
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Computes the byte size a tensor of `shape`/`dtype` occupies.
    pub(crate) fn bytes_for(shape: &[usize], dtype: DType) -> u64 {
        shape.iter().map(|&d| d as u64).product::<u64>() * dtype.size_bytes()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}<{:?}, {}>@{}",
            self.id, self.shape, self.dtype, self.ptr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(shape: Vec<usize>) -> Tensor {
        let bytes = Tensor::bytes_for(&shape, DType::F32);
        Tensor {
            id: TensorId(1),
            shape: shape.into(),
            dtype: DType::F32,
            ptr: DevicePtr(0x1000),
            bytes,
        }
    }

    #[test]
    fn numel_and_bytes() {
        let t = tensor(vec![2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert_eq!(t.bytes, 96);
        assert_eq!(t.rank(), 3);
        assert_eq!(t.dim(1), 3);
    }

    #[test]
    fn scalar_tensor() {
        let t = tensor(vec![]);
        assert_eq!(t.numel(), 1, "rank-0 tensor has one element");
        assert_eq!(t.bytes, 4);
    }

    #[test]
    fn bytes_for_respects_dtype() {
        assert_eq!(Tensor::bytes_for(&[10], DType::I64), 80);
        assert_eq!(Tensor::bytes_for(&[10], DType::U8), 10);
    }
}
