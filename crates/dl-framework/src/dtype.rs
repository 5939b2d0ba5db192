//! Element data types.

use std::fmt;

/// Tensor element type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit float (the workhorse of the paper's FP32 runs).
    F32,
    /// 16-bit float.
    F16,
    /// 64-bit integer (token ids).
    I64,
    /// 32-bit integer.
    I32,
    /// Unsigned byte.
    U8,
}

impl DType {
    /// Bytes per element.
    pub fn size_bytes(self) -> u64 {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F16 => 2,
            DType::I64 => 8,
            DType::U8 => 1,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::I64 => "i64",
            DType::I32 => "i32",
            DType::U8 => "u8",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::I64.size_bytes(), 8);
        assert_eq!(DType::U8.size_bytes(), 1);
    }

    #[test]
    fn display() {
        assert_eq!(DType::F32.to_string(), "f32");
        assert_eq!(DType::I64.to_string(), "i64");
    }
}
