//! The order condition embedded in SORE tuples.

use slicer_crypto::codec::{CodecError, Decode, Encode, Reader};
use std::fmt;

/// An order condition `oc ∈ {">", "<"}` in the paper's `x oc y` convention
/// (`x` = query value, `y` = data value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Order {
    /// `x > y`: matches data values *smaller* than the query value.
    Greater,
    /// `x < y`: matches data values *greater* than the query value.
    Less,
}

impl Encode for Order {
    fn encode(&self, out: &mut Vec<u8>) {
        let variant: u32 = match self {
            Order::Greater => 0,
            Order::Less => 1,
        };
        variant.encode(out);
    }
}

impl Decode for Order {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::decode(reader)? {
            0 => Ok(Order::Greater),
            1 => Ok(Order::Less),
            v => Err(CodecError::msg(format!("invalid Order variant {v}"))),
        }
    }
}

impl Order {
    /// The comparison `cmp(v̄, v)` of a flipped bit `v̄` with the original
    /// bit `v`, as an order symbol: `cmp(1, 0) = ">"`, `cmp(0, 1) = "<"`.
    /// The construction only ever compares a bit with its complement, so
    /// the flipped bit alone decides the result.
    pub fn cmp_flipped(flipped: bool) -> Order {
        if flipped {
            Order::Greater
        } else {
            Order::Less
        }
    }

    /// Single-byte encoding used inside tuples.
    pub fn to_byte(self) -> u8 {
        match self {
            Order::Greater => b'>',
            Order::Less => b'<',
        }
    }

    /// Whether `x oc y` holds for concrete integers.
    pub fn holds(self, x: u64, y: u64) -> bool {
        match self {
            Order::Greater => x > y,
            Order::Less => x < y,
        }
    }
}

impl fmt::Display for Order {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Order::Greater => ">",
            Order::Less => "<",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_flipped_convention() {
        // cmp(1, 0) = ">" and cmp(0, 1) = "<".
        assert_eq!(Order::cmp_flipped(true), Order::Greater);
        assert_eq!(Order::cmp_flipped(false), Order::Less);
    }

    #[test]
    fn holds_semantics() {
        assert!(Order::Greater.holds(6, 5));
        assert!(!Order::Greater.holds(5, 5));
        assert!(Order::Less.holds(4, 5));
    }
}
