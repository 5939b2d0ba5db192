//! Launch geometry (grid/block dimensions).

use std::fmt;

/// A three-dimensional launch extent, as in CUDA's `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// Extent along x.
    pub x: u32,
    /// Extent along y.
    pub y: u32,
    /// Extent along z.
    pub z: u32,
}

impl Dim3 {
    /// A 1-D extent `(n, 1, 1)`.
    pub fn linear(n: u32) -> Self {
        Dim3 { x: n, y: 1, z: 1 }
    }

    /// A 2-D extent `(x, y, 1)`.
    pub fn plane(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// A full 3-D extent.
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// Total number of elements covered by the extent.
    pub fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }

    /// True when any dimension is zero (an invalid launch).
    pub fn is_empty(self) -> bool {
        self.count() == 0
    }
}

impl Default for Dim3 {
    fn default() -> Self {
        Dim3::linear(1)
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl From<u32> for Dim3 {
    fn from(n: u32) -> Self {
        Dim3::linear(n)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::plane(x, y)
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Self {
        Dim3::new(x, y, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_multiplies_dimensions() {
        assert_eq!(Dim3::new(2, 3, 4).count(), 24);
        assert_eq!(Dim3::linear(7).count(), 7);
        assert_eq!(Dim3::plane(5, 6).count(), 30);
    }

    #[test]
    fn empty_detection() {
        assert!(Dim3::new(0, 8, 8).is_empty());
        assert!(!Dim3::linear(1).is_empty());
    }

    #[test]
    fn conversions() {
        assert_eq!(Dim3::from(8u32), Dim3::linear(8));
        assert_eq!(Dim3::from((2u32, 3u32)), Dim3::plane(2, 3));
        assert_eq!(Dim3::from((2u32, 3u32, 4u32)), Dim3::new(2, 3, 4));
    }

    #[test]
    fn display_format() {
        assert_eq!(Dim3::new(1, 2, 3).to_string(), "(1, 2, 3)");
    }

    #[test]
    fn large_counts_do_not_overflow_u32_math() {
        let d = Dim3::new(65535, 65535, 64);
        assert_eq!(d.count(), 65535u64 * 65535 * 64);
    }
}
