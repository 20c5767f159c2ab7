//! The VM's word-addressed data memory.
//!
//! Every array element of the benchmarks occupies one 64-bit word; addresses
//! are word indices. A simple bump allocator hands out regions — the
//! benchmarks (like the paper's) allocate their arrays up front, so nothing
//! fancier is needed.

use crate::interp::VmError;
use crate::value::Value;

/// Word-addressed data memory with a bump allocator.
#[derive(Debug, Clone, Default)]
pub struct Mem {
    words: Vec<u64>,
}

impl Mem {
    /// An empty memory.
    pub fn new() -> Mem {
        Mem::default()
    }

    /// Allocate `n` zeroed words; returns the base address.
    pub fn alloc(&mut self, n: usize) -> i64 {
        let base = self.words.len() as i64;
        self.words.resize(self.words.len() + n, 0);
        base
    }

    /// Total words allocated.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Raw pointer to the word array, for the native backend's context
    /// struct. Valid until the next allocation; generated code pairs it
    /// with [`Mem::len`] for bounds checks.
    pub fn as_mut_ptr(&mut self) -> *mut u64 {
        self.words.as_mut_ptr()
    }

    /// True if nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Read an integer word (a harness helper; guest loads go through
    /// [`Mem::read`]).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn read_int(&self, addr: i64) -> i64 {
        self.words[Self::index(addr)] as i64
    }

    /// Read a float word.
    #[inline]
    pub fn read_float(&self, addr: i64) -> f64 {
        f64::from_bits(self.words[Self::index(addr)])
    }

    /// Read a word as a typed [`Value`]: a guest load, so an address
    /// outside memory is [`VmError::OutOfBounds`], not a panic. (A
    /// negative address converts to a huge index, as in the native
    /// backend's unsigned bounds check.)
    #[inline]
    pub fn read(&self, addr: i64, ty: crate::isa::Ty) -> Result<Value, VmError> {
        let bits = *self
            .words
            .get(addr as usize)
            .ok_or_else(|| out_of_bounds(addr))?;
        Ok(match ty {
            crate::isa::Ty::Int => Value::int_from_bits(bits),
            crate::isa::Ty::Float => Value::float_from_bits(bits),
        })
    }

    /// Write an integer word.
    #[inline]
    pub fn write_int(&mut self, addr: i64, v: i64) {
        let i = Self::index(addr);
        self.words[i] = v as u64;
    }

    /// Write a float word.
    #[inline]
    pub fn write_float(&mut self, addr: i64, v: f64) {
        let i = Self::index(addr);
        self.words[i] = v.to_bits();
    }

    /// Write a typed [`Value`]: a guest store, so an address outside
    /// memory is [`VmError::OutOfBounds`], not a panic.
    #[inline]
    pub fn write(&mut self, addr: i64, v: Value) -> Result<(), VmError> {
        let word = self.words.get_mut(addr as usize);
        *word.ok_or_else(|| out_of_bounds(addr))? = v.to_bits();
        Ok(())
    }

    /// Bulk-fill a region with integer values (harness convenience).
    pub fn write_ints(&mut self, base: i64, vals: &[i64]) {
        for (i, &v) in vals.iter().enumerate() {
            self.write_int(base + i as i64, v);
        }
    }

    /// Bulk-fill a region with float values (harness convenience).
    pub fn write_floats(&mut self, base: i64, vals: &[f64]) {
        for (i, &v) in vals.iter().enumerate() {
            self.write_float(base + i as i64, v);
        }
    }

    /// Bulk-read integers (harness convenience).
    pub fn read_ints(&self, base: i64, n: usize) -> Vec<i64> {
        (0..n).map(|i| self.read_int(base + i as i64)).collect()
    }

    /// Bulk-read floats (harness convenience).
    pub fn read_floats(&self, base: i64, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.read_float(base + i as i64)).collect()
    }

    #[inline]
    fn index(addr: i64) -> usize {
        debug_assert!(addr >= 0, "negative address {addr}");
        addr as usize
    }
}

#[cold]
#[inline(never)]
fn out_of_bounds(addr: i64) -> VmError {
    VmError::OutOfBounds(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Ty;

    #[test]
    fn alloc_is_zeroed_and_contiguous() {
        let mut m = Mem::new();
        let a = m.alloc(4);
        let b = m.alloc(2);
        assert_eq!(a, 0);
        assert_eq!(b, 4);
        assert_eq!(m.len(), 6);
        for i in 0..6 {
            assert_eq!(m.read_int(i), 0);
        }
    }

    #[test]
    fn typed_read_write() {
        let mut m = Mem::new();
        let a = m.alloc(2);
        m.write_int(a, -9);
        m.write_float(a + 1, 2.5);
        assert_eq!(m.read(a, Ty::Int), Ok(Value::I(-9)));
        assert_eq!(m.read(a + 1, Ty::Float), Ok(Value::F(2.5)));
        assert_eq!(m.write(a + 1, Value::I(3)), Ok(()));
        assert_eq!(m.read_int(a + 1), 3);
    }

    #[test]
    fn guest_accesses_out_of_bounds_are_errors() {
        let mut m = Mem::new();
        let a = m.alloc(2);
        for addr in [-1, 2, i64::MIN, i64::MAX] {
            assert_eq!(m.read(addr, Ty::Int), Err(VmError::OutOfBounds(addr)));
            assert_eq!(m.write(addr, Value::I(1)), Err(VmError::OutOfBounds(addr)));
        }
        assert_eq!(m.read_ints(a, 2), [0, 0], "a failed store writes nothing");
    }

    #[test]
    fn bulk_helpers_round_trip() {
        let mut m = Mem::new();
        let a = m.alloc(3);
        m.write_ints(a, &[1, 2, 3]);
        assert_eq!(m.read_ints(a, 3), vec![1, 2, 3]);
        let b = m.alloc(2);
        m.write_floats(b, &[0.5, -0.5]);
        assert_eq!(m.read_floats(b, 2), vec![0.5, -0.5]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let m = Mem::new();
        let _ = m.read_int(0);
    }
}
