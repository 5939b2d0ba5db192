//! Page and block geometry.
//!
//! UVM migrates at 64 KiB-page granularity (the driver's base migration
//! unit) and the paper's hotness analysis (Fig. 13) bins by 2 MiB virtual
//! blocks; both constants live here.

/// Migration granularity: 64 KiB.
pub const PAGE_SIZE: u64 = 64 << 10;

/// Hotness/reporting granularity: 2 MiB.
pub const BLOCK_SIZE: u64 = 2 << 20;

/// Index of the page containing `addr`.
pub fn page_of_addr(addr: u64) -> u64 {
    addr / PAGE_SIZE
}

/// Index of the 2 MiB block containing `addr`.
pub fn block_of_addr(addr: u64) -> u64 {
    addr / BLOCK_SIZE
}

/// A half-open range of page indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRange {
    /// First page index.
    pub first: u64,
    /// One past the last page index.
    pub end: u64,
}

impl PageRange {
    /// Number of pages.
    pub fn count(self) -> u64 {
        self.end - self.first
    }

    /// True when `page` lies in the range.
    pub fn contains(self, page: u64) -> bool {
        (self.first..self.end).contains(&page)
    }

    /// Iterates the page indices.
    pub fn iter(self) -> impl Iterator<Item = u64> {
        self.first..self.end
    }

    /// Byte extent covered by the range.
    pub fn bytes(self) -> u64 {
        self.count() * PAGE_SIZE
    }
}

/// Pages overlapping the byte range `[base, base + len)`.
///
/// A zero-length range covers no pages.
pub fn page_range(base: u64, len: u64) -> PageRange {
    if len == 0 {
        return PageRange {
            first: page_of_addr(base),
            end: page_of_addr(base),
        };
    }
    PageRange {
        first: page_of_addr(base),
        end: page_of_addr(base + len - 1) + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        assert_eq!(page_of_addr(0), 0);
        assert_eq!(page_of_addr(PAGE_SIZE - 1), 0);
        assert_eq!(page_of_addr(PAGE_SIZE), 1);
        assert_eq!(block_of_addr(BLOCK_SIZE + 1), 1);
    }

    #[test]
    fn range_covers_partial_pages() {
        let r = page_range(100, 10);
        assert_eq!(r.count(), 1, "sub-page range still touches one page");
        let r = page_range(PAGE_SIZE - 1, 2);
        assert_eq!(r.count(), 2, "straddling range touches two pages");
    }

    #[test]
    fn zero_len_range_is_empty() {
        let r = page_range(12345, 0);
        assert_eq!(r.count(), 0);
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn exact_page_boundaries() {
        let r = page_range(PAGE_SIZE, PAGE_SIZE);
        assert_eq!(r.first, 1);
        assert_eq!(r.end, 2);
        assert_eq!(r.bytes(), PAGE_SIZE);
    }

    #[test]
    fn block_holds_32_pages() {
        assert_eq!(BLOCK_SIZE / PAGE_SIZE, 32);
    }
}
