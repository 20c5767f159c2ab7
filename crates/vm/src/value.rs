//! Run-time values.
//!
//! DyCL (like the subset of C the paper's benchmarks use) has two scalar
//! types: 64-bit integers and 64-bit floats. Registers and memory words hold
//! either.

use std::fmt;

/// A scalar value held in a VM register or memory word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A 64-bit signed integer (also used for addresses and booleans).
    I(i64),
    /// A 64-bit IEEE float.
    F(f64),
}

impl Value {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a float; the IR type checker guarantees this
    /// cannot happen for verified code.
    #[inline]
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::F(v) => panic!("expected int value, found float {v}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is an integer.
    #[inline]
    pub fn as_f(self) -> f64 {
        match self {
            Value::F(v) => v,
            Value::I(v) => panic!("expected float value, found int {v}"),
        }
    }

    /// True if this is an integer value.
    #[inline]
    pub fn is_int(self) -> bool {
        matches!(self, Value::I(_))
    }

    /// Raw 64-bit encoding, used by the word-addressed memory.
    #[inline]
    pub fn to_bits(self) -> u64 {
        match self {
            Value::I(v) => v as u64,
            Value::F(v) => v.to_bits(),
        }
    }

    /// Decode a raw word as an integer value.
    #[inline]
    pub fn int_from_bits(bits: u64) -> Value {
        Value::I(bits as i64)
    }

    /// Decode a raw word as a float value.
    #[inline]
    pub fn float_from_bits(bits: u64) -> Value {
        Value::F(f64::from_bits(bits))
    }

    /// Truthiness, matching C: nonzero is true.
    #[inline]
    pub fn is_truthy(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::F(v) => v != 0.0,
        }
    }

    /// A stable hash key for specialization caches. Floats key on their bit
    /// pattern so `-0.0` and `0.0` are distinct keys (value-specific code
    /// for them is identical anyway, just cached twice — same choice DyC's
    /// word-based hashing makes).
    #[inline]
    pub fn key_bits(self) -> u64 {
        match self {
            Value::I(v) => v as u64,
            Value::F(v) => v.to_bits() ^ FLOAT_KEY_FLIP,
        }
    }

    /// The value whose [`key_bits`](Value::key_bits) are `bits`, given
    /// whether it is a float: the inverse of `key_bits`, bit for bit
    /// (signed zeros, infinities and NaN payloads included).
    #[inline]
    pub fn from_key_bits(bits: u64, is_float: bool) -> Value {
        if is_float {
            Value::F(f64::from_bits(bits ^ FLOAT_KEY_FLIP))
        } else {
            Value::I(bits as i64)
        }
    }
}

/// What [`Value::key_bits`] flips in a float's bits.
const FLOAT_KEY_FLIP: u64 = 0x8000_0000_0000_0000;

impl Default for Value {
    fn default() -> Self {
        Value::I(0)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::I(v as i64)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I(v) => write!(f, "{v}"),
            Value::F(v) => write!(f, "{v:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_round_trip() {
        let v = Value::I(-42);
        assert_eq!(Value::int_from_bits(v.to_bits()), v);
        assert_eq!(v.as_i(), -42);
        assert!(v.is_int());
    }

    #[test]
    fn float_round_trip() {
        let v = Value::F(3.25);
        assert_eq!(Value::float_from_bits(v.to_bits()), v);
        assert_eq!(v.as_f(), 3.25);
        assert!(!v.is_int());
    }

    #[test]
    fn truthiness_matches_c() {
        assert!(Value::I(1).is_truthy());
        assert!(!Value::I(0).is_truthy());
        assert!(Value::F(0.5).is_truthy());
        assert!(!Value::F(0.0).is_truthy());
        assert!(!Value::F(-0.0).is_truthy());
    }

    #[test]
    fn key_bits_distinguish_int_and_float_zero() {
        assert_ne!(Value::I(0).key_bits(), Value::F(0.0).key_bits());
    }

    #[test]
    fn from_key_bits_inverts_key_bits() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let values = [
            Value::I(0),
            Value::I(-1),
            Value::I(i64::MIN),
            Value::I(i64::MAX),
            Value::F(0.0),
            Value::F(-0.0),
            Value::F(f64::INFINITY),
            Value::F(f64::NEG_INFINITY),
            Value::F(f64::from_bits(1)),
            Value::F(nan),
            Value::F(-nan),
        ];
        for v in values {
            let back = Value::from_key_bits(v.key_bits(), !v.is_int());
            assert_eq!(back.is_int(), v.is_int(), "{v:?}: variant");
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}: bits");
        }
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn as_i_panics_on_float() {
        let _ = Value::F(1.0).as_i();
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::I(7).to_string(), "7");
        assert_eq!(Value::F(1.5).to_string(), "1.5");
    }
}
