//! A 256-bit unsigned integer on four little-endian `u64` limbs.
//!
//! Implemented from scratch so the workspace has no external big-int
//! dependency. The API mirrors the standard integer types where it makes
//! sense: `checked_*`, `overflowing_*`, `saturating_*`, operator impls
//! that panic on overflow in debug and release alike (token accounting
//! must never wrap silently).

// Fixed-width limb arithmetic reads most clearly with explicit indices;
// iterator adaptors obscure the carry chains.
#![allow(clippy::needless_range_loop)]

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{
    Add, AddAssign, BitAnd, BitOr, BitXor, Div, Mul, Not, Rem, Shl, Shr, Sub, SubAssign,
};
use core::str::FromStr;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// 256-bit unsigned integer. Limbs are little-endian: `limbs[0]` holds the
/// least significant 64 bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    limbs: [u64; 4],
}

/// Error returned when parsing a [`U256`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseU256Error {
    /// The input was empty (or only a `0x` prefix).
    Empty,
    /// An invalid digit was encountered at the given byte offset.
    InvalidDigit(usize),
    /// The value does not fit in 256 bits.
    Overflow,
}

impl fmt::Display for ParseU256Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseU256Error::Empty => write!(f, "empty string"),
            ParseU256Error::InvalidDigit(at) => write!(f, "invalid digit at offset {at}"),
            ParseU256Error::Overflow => write!(f, "value does not fit in 256 bits"),
        }
    }
}

impl std::error::Error for ParseU256Error {}

impl U256 {
    /// The value `0`.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value `1`.
    pub const ONE: U256 = U256 { limbs: [1, 0, 0, 0] };
    /// The largest representable value, `2^256 - 1`.
    pub const MAX: U256 = U256 { limbs: [u64::MAX; 4] };

    /// Constructs from little-endian limbs.
    #[inline]
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// Returns the little-endian limbs.
    #[inline]
    pub const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Constructs from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        U256 { limbs: [v, 0, 0, 0] }
    }

    /// Constructs from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        U256 {
            limbs: [v as u64, (v >> 64) as u64, 0, 0],
        }
    }

    /// Returns the value as `u64` if it fits.
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        if self.limbs[1] == 0 && self.limbs[2] == 0 && self.limbs[3] == 0 {
            Some(self.limbs[0])
        } else {
            None
        }
    }

    /// Returns the value as `u128` if it fits.
    #[inline]
    pub fn as_u128(&self) -> Option<u128> {
        if self.limbs[2] == 0 && self.limbs[3] == 0 {
            Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128)
        } else {
            None
        }
    }

    /// Truncating conversion to `u128` (low 128 bits).
    #[inline]
    pub const fn low_u128(&self) -> u128 {
        (self.limbs[1] as u128) << 64 | self.limbs[0] as u128
    }

    /// Lossy conversion to `f64`. Exact for values below 2^53; above that,
    /// relative error is bounded by `f64` precision — good enough for the
    /// USD bucketing the measurement code does.
    pub fn to_f64_lossy(&self) -> f64 {
        let mut acc = 0.0f64;
        for i in (0..4).rev() {
            acc = acc * 1.8446744073709552e19 + self.limbs[i] as f64;
        }
        acc
    }

    /// `true` iff the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return (i as u32) * 64 + (64 - self.limbs[i].leading_zeros());
            }
        }
        0
    }

    /// Big-endian byte representation (32 bytes).
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[32 - 8 * (i + 1)..32 - 8 * i].copy_from_slice(&self.limbs[i].to_be_bytes());
        }
        out
    }

    /// Constructs from big-endian bytes (up to 32; shorter slices are
    /// treated as left-padded with zeros).
    ///
    /// # Panics
    /// Panics if `bytes.len() > 32`.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 32, "U256::from_be_bytes: more than 32 bytes");
        let mut buf = [0u8; 32];
        buf[32 - bytes.len()..].copy_from_slice(bytes);
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut w = [0u8; 8];
            w.copy_from_slice(&buf[32 - 8 * (i + 1)..32 - 8 * i]);
            *limb = u64::from_be_bytes(w);
        }
        U256 { limbs }
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: U256) -> Option<U256> {
        let (v, overflow) = self.overflowing_add(rhs);
        if overflow {
            None
        } else {
            Some(v)
        }
    }

    /// Overflowing addition.
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut limbs = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            limbs[i] = s2;
            carry = c1 | c2;
        }
        (U256 { limbs }, carry)
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: U256) -> U256 {
        self.checked_add(rhs).unwrap_or(U256::MAX)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: U256) -> Option<U256> {
        let (v, borrow) = self.overflowing_sub(rhs);
        if borrow {
            None
        } else {
            Some(v)
        }
    }

    /// Overflowing (wrapping) subtraction; the flag reports borrow.
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut limbs = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            limbs[i] = d2;
            borrow = b1 | b2;
        }
        (U256 { limbs }, borrow)
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: U256) -> U256 {
        self.checked_sub(rhs).unwrap_or(U256::ZERO)
    }

    /// Checked multiplication.
    pub fn checked_mul(self, rhs: U256) -> Option<U256> {
        let mut acc = [0u64; 8];
        for i in 0..4 {
            if self.limbs[i] == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for j in 0..4 {
                let idx = i + j;
                let cur = acc[idx] as u128
                    + (self.limbs[i] as u128) * (rhs.limbs[j] as u128)
                    + carry;
                acc[idx] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + 4;
            while carry != 0 {
                let cur = acc[idx] as u128 + carry;
                acc[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        if acc[4..].iter().any(|&w| w != 0) {
            return None;
        }
        Some(U256 {
            limbs: [acc[0], acc[1], acc[2], acc[3]],
        })
    }

    /// Checked division; `None` iff `rhs` is zero.
    pub fn checked_div(self, rhs: U256) -> Option<U256> {
        if rhs.is_zero() {
            None
        } else {
            Some(self.div_rem(rhs).0)
        }
    }

    /// Checked remainder; `None` iff `rhs` is zero.
    pub fn checked_rem(self, rhs: U256) -> Option<U256> {
        if rhs.is_zero() {
            None
        } else {
            Some(self.div_rem(rhs).1)
        }
    }

    /// Simultaneous quotient and remainder.
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    pub fn div_rem(self, rhs: U256) -> (U256, U256) {
        assert!(!rhs.is_zero(), "U256 division by zero");
        if self < rhs {
            return (U256::ZERO, self);
        }
        if let (Some(a), Some(b)) = (self.as_u128(), rhs.as_u128()) {
            return (U256::from_u128(a / b), U256::from_u128(a % b));
        }
        // Bit-by-bit long division. 256 iterations worst case; fine for the
        // accounting workloads in this workspace (division is rare).
        let mut quotient = U256::ZERO;
        let mut remainder = U256::ZERO;
        let n = self.bits();
        for i in (0..n).rev() {
            remainder = remainder << 1;
            if self.bit(i) {
                remainder.limbs[0] |= 1;
            }
            if remainder >= rhs {
                remainder -= rhs;
                quotient.set_bit(i);
            }
        }
        (quotient, remainder)
    }

    /// Returns bit `i` (little-endian bit order).
    #[inline]
    pub fn bit(&self, i: u32) -> bool {
        debug_assert!(i < 256);
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    #[inline]
    fn set_bit(&mut self, i: u32) {
        self.limbs[(i / 64) as usize] |= 1 << (i % 64);
    }

    /// `self * num / den` computed without intermediate overflow. This is
    /// the profit-split primitive (`msg.value * 20 / 100`) used by the
    /// simulated contracts. When both factors and the divisor fit in 128
    /// bits and so does their product — every split in a generated world
    /// — it is one `u128` multiply and divide; otherwise the product is
    /// kept in 512 bits.
    ///
    /// # Panics
    /// Panics if `den` is zero or the final quotient overflows 256 bits.
    pub fn mul_div(self, num: U256, den: U256) -> U256 {
        assert!(!den.is_zero(), "U256::mul_div division by zero");
        if let (Some(a), Some(b), Some(d)) = (self.as_u128(), num.as_u128(), den.as_u128()) {
            if let Some(product) = a.checked_mul(b) {
                return U256::from_u128(product / d);
            }
        }
        self.mul_div_wide(num, den)
    }

    /// [`U256::mul_div`] over a 512-bit product with bit-serial long
    /// division: exact for every operand, and the reference the `u128`
    /// path is tested against.
    fn mul_div_wide(self, num: U256, den: U256) -> U256 {
        // 512-bit product in 8 limbs.
        let mut acc = [0u64; 8];
        for i in 0..4 {
            if self.limbs[i] == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for j in 0..4 {
                let idx = i + j;
                let cur =
                    acc[idx] as u128 + (self.limbs[i] as u128) * (num.limbs[j] as u128) + carry;
                acc[idx] = cur as u64;
                carry = cur >> 64;
            }
            acc[i + 4] = carry as u64;
        }
        // 512 / 256 long division, bit by bit over significant bits.
        let mut rem = U256::ZERO;
        let mut quo = [0u64; 8];
        let mut top = 512;
        while top > 0 {
            let i = top - 1;
            if (acc[i / 64] >> (i % 64)) & 1 == 1 {
                break;
            }
            top -= 1;
        }
        for i in (0..top).rev() {
            // rem = rem << 1 | bit; relies on rem < den <= U256::MAX so the
            // shift cannot lose a high bit (rem < 2^256 / 2 is NOT
            // guaranteed, so check explicitly).
            let high_bit = rem.bit(255);
            rem = rem << 1;
            if (acc[i / 64] >> (i % 64)) & 1 == 1 {
                rem.limbs[0] |= 1;
            }
            if high_bit || rem >= den {
                if high_bit {
                    // rem (with the lost 2^256 bit) minus den: compute via
                    // wrapping subtraction, which is exact mod 2^256.
                    rem = rem.overflowing_sub(den).0;
                } else {
                    rem -= den;
                }
                quo[i / 64] |= 1 << (i % 64);
            }
        }
        assert!(
            quo[4..].iter().all(|&w| w == 0),
            "U256::mul_div quotient overflow"
        );
        U256 {
            limbs: [quo[0], quo[1], quo[2], quo[3]],
        }
    }

    /// Integer square root (floor).
    pub fn isqrt(self) -> U256 {
        if self.is_zero() {
            return U256::ZERO;
        }
        let mut x = U256::ONE << self.bits().div_ceil(2);
        loop {
            let y = (x + self / x) >> 1;
            if y >= x {
                return x;
            }
            x = y;
        }
    }

    /// Parses a decimal string.
    pub fn from_dec_str(s: &str) -> Result<Self, ParseU256Error> {
        if s.is_empty() {
            return Err(ParseU256Error::Empty);
        }
        let mut acc = U256::ZERO;
        let ten = U256::from_u64(10);
        for (i, b) in s.bytes().enumerate() {
            if b == b'_' {
                continue;
            }
            if !b.is_ascii_digit() {
                return Err(ParseU256Error::InvalidDigit(i));
            }
            acc = acc
                .checked_mul(ten)
                .and_then(|v| v.checked_add(U256::from_u64((b - b'0') as u64)))
                .ok_or(ParseU256Error::Overflow)?;
        }
        Ok(acc)
    }

    /// Parses a hex string, with or without a `0x` prefix.
    pub fn from_hex_str(s: &str) -> Result<Self, ParseU256Error> {
        let t = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")).unwrap_or(s);
        if t.is_empty() {
            return Err(ParseU256Error::Empty);
        }
        if t.len() > 64 {
            return Err(ParseU256Error::Overflow);
        }
        let mut acc = U256::ZERO;
        for (i, b) in t.bytes().enumerate() {
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(ParseU256Error::InvalidDigit(i + s.len() - t.len())),
            };
            acc = (acc << 4) | U256::from_u64(d as u64);
        }
        Ok(acc)
    }

    /// Formats as a minimal `0x`-prefixed hex string.
    pub fn to_hex_string(&self) -> String {
        if self.is_zero() {
            return "0x0".to_owned();
        }
        let bytes = self.to_be_bytes();
        let mut s = String::with_capacity(66);
        s.push_str("0x");
        let mut started = false;
        for b in bytes {
            if !started {
                if b == 0 {
                    continue;
                }
                started = true;
                if b < 0x10 {
                    s.push(char::from_digit(b as u32, 16).unwrap());
                    continue;
                }
            }
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256({self})")
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        let mut digits = Vec::with_capacity(78);
        let mut v = *self;
        let ten = U256::from_u64(10);
        while !v.is_zero() {
            let (q, r) = v.div_rem(ten);
            digits.push(b'0' + r.limbs[0] as u8);
            v = q;
        }
        digits.reverse();
        f.pad_integral(true, "", core::str::from_utf8(&digits).unwrap())
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.to_hex_string();
        f.pad_integral(true, "0x", &s[2..])
    }
}

impl FromStr for U256 {
    type Err = ParseU256Error;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.starts_with("0x") || s.starts_with("0X") {
            U256::from_hex_str(s)
        } else {
            U256::from_dec_str(s)
        }
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u32> for U256 {
    fn from(v: u32) -> Self {
        U256::from_u64(v as u64)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for U256 {
    type Output = U256;
    fn add(self, rhs: U256) -> U256 {
        self.checked_add(rhs).expect("U256 addition overflow")
    }
}

impl AddAssign for U256 {
    fn add_assign(&mut self, rhs: U256) {
        *self = *self + rhs;
    }
}

impl Sub for U256 {
    type Output = U256;
    fn sub(self, rhs: U256) -> U256 {
        self.checked_sub(rhs).expect("U256 subtraction underflow")
    }
}

impl SubAssign for U256 {
    fn sub_assign(&mut self, rhs: U256) {
        *self = *self - rhs;
    }
}

impl Mul for U256 {
    type Output = U256;
    fn mul(self, rhs: U256) -> U256 {
        self.checked_mul(rhs).expect("U256 multiplication overflow")
    }
}

impl Div for U256 {
    type Output = U256;
    fn div(self, rhs: U256) -> U256 {
        self.checked_div(rhs).expect("U256 division by zero")
    }
}

impl Rem for U256 {
    type Output = U256;
    fn rem(self, rhs: U256) -> U256 {
        self.checked_rem(rhs).expect("U256 remainder by zero")
    }
}

impl Shl<u32> for U256 {
    type Output = U256;
    fn shl(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let word = (shift / 64) as usize;
        let bit = shift % 64;
        let mut limbs = [0u64; 4];
        for i in (word..4).rev() {
            let mut v = self.limbs[i - word] << bit;
            if bit > 0 && i > word {
                v |= self.limbs[i - word - 1] >> (64 - bit);
            }
            limbs[i] = v;
        }
        U256 { limbs }
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    fn shr(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let word = (shift / 64) as usize;
        let bit = shift % 64;
        let mut limbs = [0u64; 4];
        for i in 0..4 - word {
            let mut v = self.limbs[i + word] >> bit;
            if bit > 0 && i + word + 1 < 4 {
                v |= self.limbs[i + word + 1] << (64 - bit);
            }
            limbs[i] = v;
        }
        U256 { limbs }
    }
}

impl BitAnd for U256 {
    type Output = U256;
    fn bitand(self, rhs: U256) -> U256 {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = self.limbs[i] & rhs.limbs[i];
        }
        U256 { limbs }
    }
}

impl BitOr for U256 {
    type Output = U256;
    fn bitor(self, rhs: U256) -> U256 {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = self.limbs[i] | rhs.limbs[i];
        }
        U256 { limbs }
    }
}

impl BitXor for U256 {
    type Output = U256;
    fn bitxor(self, rhs: U256) -> U256 {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = self.limbs[i] ^ rhs.limbs[i];
        }
        U256 { limbs }
    }
}

impl Not for U256 {
    type Output = U256;
    fn not(self) -> U256 {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = !self.limbs[i];
        }
        U256 { limbs }
    }
}

impl Sum for U256 {
    fn sum<I: Iterator<Item = U256>>(iter: I) -> U256 {
        iter.fold(U256::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a U256> for U256 {
    fn sum<I: Iterator<Item = &'a U256>>(iter: I) -> U256 {
        iter.fold(U256::ZERO, |a, b| a + *b)
    }
}

impl Serialize for U256 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Decimal string: lossless and human-auditable in dataset dumps.
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> Deserialize<'de> for U256 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u128) -> U256 {
        U256::from_u128(v)
    }

    #[test]
    fn constants() {
        assert!(U256::ZERO.is_zero());
        assert_eq!(U256::ONE.as_u64(), Some(1));
        assert_eq!(U256::MAX.bits(), 256);
    }

    #[test]
    fn add_basic() {
        assert_eq!(u(2) + u(3), u(5));
        let carry = U256::from_limbs([u64::MAX, 0, 0, 0]) + U256::ONE;
        assert_eq!(carry, U256::from_limbs([0, 1, 0, 0]));
    }

    #[test]
    fn add_overflow_checked() {
        assert_eq!(U256::MAX.checked_add(U256::ONE), None);
        assert_eq!(U256::MAX.saturating_add(U256::ONE), U256::MAX);
        assert_eq!(U256::MAX.overflowing_add(U256::ONE), (U256::ZERO, true));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_overflow_panics() {
        let _ = U256::MAX + U256::ONE;
    }

    #[test]
    fn sub_basic() {
        assert_eq!(u(5) - u(3), u(2));
        assert_eq!(u(5).checked_sub(u(6)), None);
        assert_eq!(u(5).saturating_sub(u(6)), U256::ZERO);
        let borrow = U256::from_limbs([0, 1, 0, 0]) - U256::ONE;
        assert_eq!(borrow, U256::from_limbs([u64::MAX, 0, 0, 0]));
    }

    #[test]
    fn mul_basic() {
        assert_eq!(u(7) * u(6), u(42));
        assert_eq!(u(1 << 64) * u(1 << 63), U256::ONE << 127);
        // cross-limb: (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = U256::from_u64(u64::MAX);
        let expect = (U256::ONE << 128) - (U256::ONE << 65) + U256::ONE;
        assert_eq!(a * a, expect);
    }

    #[test]
    fn mul_overflow() {
        assert_eq!((U256::ONE << 128).checked_mul(U256::ONE << 128), None);
        assert_eq!(U256::MAX.checked_mul(u(2)), None);
        assert_eq!(U256::MAX.checked_mul(U256::ONE), Some(U256::MAX));
    }

    #[test]
    fn div_rem_basic() {
        let (q, r) = u(17).div_rem(u(5));
        assert_eq!((q, r), (u(3), u(2)));
        let (q, r) = (U256::MAX).div_rem(U256::MAX);
        assert_eq!((q, r), (U256::ONE, U256::ZERO));
        let big = U256::MAX - u(1);
        let (q, r) = big.div_rem(u(3));
        assert_eq!(q * u(3) + r, big);
        assert!(r < u(3));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = u(1).div_rem(U256::ZERO);
    }

    #[test]
    fn mul_div_profit_split() {
        // 9.13 ETH * 30 / 100 = 2.739 ETH, in wei.
        let v = U256::from_u128(9_130_000_000_000_000_000);
        let share = v.mul_div(u(30), u(100));
        assert_eq!(share, U256::from_u128(2_739_000_000_000_000_000));
    }

    #[test]
    fn mul_div_large_intermediate() {
        // (2^255) * 2 / 4 = 2^254: the product needs 512 bits.
        let v = U256::ONE << 255;
        assert_eq!(v.mul_div(u(2), u(4)), U256::ONE << 254);
        // MAX * MAX / MAX = MAX
        assert_eq!(U256::MAX.mul_div(U256::MAX, U256::MAX), U256::MAX);
    }

    #[test]
    #[should_panic(expected = "U256::mul_div division by zero")]
    fn mul_div_by_zero_panics_on_the_u128_path() {
        let _ = u(3).mul_div(u(5), U256::ZERO);
    }

    #[test]
    #[should_panic(expected = "U256::mul_div quotient overflow")]
    fn mul_div_quotient_overflow_panics() {
        let _ = (U256::ONE << 255).mul_div(u(4), u(2));
    }

    #[test]
    fn mul_div_u128_edges_match_the_512_bit_path() {
        let max = u(u128::MAX);
        let cases = [
            // (2^64 - 1)(2^64 + 1) = 2^128 - 1: the largest u128 product.
            (u(u64::MAX as u128), u(u64::MAX as u128 + 2), u(7)),
            // 2^64 * 2^64 = 2^128: the smallest product past u128.
            (u(1 << 64), u(1 << 64), u(3)),
            (max, U256::ONE, max),
            (max, u(2), max),
            (max, u(2), U256::ONE << 128),
            (max, U256::ZERO, U256::ONE << 200),
            (U256::ZERO, U256::MAX, U256::ONE),
            (u(1 << 100), u(1 << 27), u((1 << 64) + 1)),
            (u(1 << 100), u(1 << 28), u((1 << 64) + 1)),
        ];
        for (a, b, d) in cases {
            assert_eq!(a.mul_div(b, d), a.mul_div_wide(b, d), "{a} * {b} / {d}");
        }
    }

    /// A value with exactly `bits` significant bits (zero for 0), the
    /// bits below the top one taken from `limbs`.
    fn of_width(bits: u32, limbs: [u64; 4]) -> U256 {
        if bits == 0 {
            return U256::ZERO;
        }
        (U256::from_limbs(limbs) >> (256 - bits)) | (U256::ONE << (bits - 1))
    }

    proptest::proptest! {
        #![proptest_config(proptest::config::ProptestConfig::with_cases(4096))]

        /// Factor widths are drawn so the product lands within a few bits
        /// of 2^128 on either side, divisors are mostly wider than 64
        /// bits (some wider than 128), and an eighth of the cases zero
        /// one factor: every guard of the `u128` path is crossed both
        /// ways, and each result must equal the 512-bit path's.
        #[test]
        fn mul_div_matches_the_512_bit_path(
            widths in (0u32..=136, -3i32..=3, 1u32..=136, 0u8..16),
            a_limbs in proptest::prelude::any::<[u64; 4]>(),
            b_limbs in proptest::prelude::any::<[u64; 4]>(),
            d_limbs in proptest::prelude::any::<[u64; 4]>()
        ) {
            let (a_bits, skew, d_bits, zero) = widths;
            let b_bits = (128 - a_bits as i32 + skew).clamp(0, 256) as u32;
            let a = if zero == 0 { U256::ZERO } else { of_width(a_bits, a_limbs) };
            let b = if zero == 1 { U256::ZERO } else { of_width(b_bits, b_limbs) };
            let d = of_width(d_bits, d_limbs);
            proptest::prop_assert_eq!(a.mul_div(b, d), a.mul_div_wide(b, d), "{} * {} / {}", a, b, d);
        }
    }

    #[test]
    fn shifts() {
        assert_eq!(u(1) << 200 >> 200, u(1));
        assert_eq!(u(0xff) << 256, U256::ZERO);
        assert_eq!(U256::MAX >> 255, U256::ONE);
        assert_eq!(u(1) << 64, U256::from_limbs([0, 1, 0, 0]));
        assert_eq!(u(3) << 63, U256::from_limbs([1 << 63, 1, 0, 0]));
    }

    #[test]
    fn bit_ops() {
        assert_eq!(U256::MAX & U256::ZERO, U256::ZERO);
        assert_eq!(U256::MAX | U256::ZERO, U256::MAX);
        assert_eq!(U256::MAX ^ U256::MAX, U256::ZERO);
        assert_eq!(!U256::ZERO, U256::MAX);
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "1000000000000000000",
            "115792089237316195423570985008687907853269984665640564039457584007913129639935",
        ] {
            assert_eq!(U256::from_dec_str(s).unwrap().to_string(), s);
        }
        assert_eq!(
            U256::from_dec_str(
                "115792089237316195423570985008687907853269984665640564039457584007913129639936"
            ),
            Err(ParseU256Error::Overflow)
        );
        assert_eq!(U256::from_dec_str(""), Err(ParseU256Error::Empty));
        assert_eq!(U256::from_dec_str("12a"), Err(ParseU256Error::InvalidDigit(2)));
    }

    #[test]
    fn hex_roundtrip() {
        for s in ["0x0", "0x1", "0xdeadbeef", "0xffffffffffffffffffffffffffffffff"] {
            assert_eq!(U256::from_hex_str(s).unwrap().to_hex_string(), s);
        }
        assert_eq!(U256::from_hex_str("0xg"), Err(ParseU256Error::InvalidDigit(2)));
        assert!(U256::from_hex_str(&"f".repeat(65)).is_err());
    }

    #[test]
    fn display_and_from_str() {
        let v: U256 = "12345678901234567890123456789".parse().unwrap();
        assert_eq!(v.to_string(), "12345678901234567890123456789");
        let h: U256 = "0xff".parse().unwrap();
        assert_eq!(h, u(255));
        assert_eq!(format!("{h:x}"), "ff");
        assert_eq!(format!("{h:#x}"), "0xff");
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = U256::from_hex_str("0x0102030405060708090a0b0c0d0e0f10").unwrap();
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
        assert_eq!(U256::from_be_bytes(&[0xff]), u(255));
    }

    #[test]
    fn ordering() {
        assert!(U256::from_limbs([0, 0, 0, 1]) > U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0]));
        assert!(u(1) < u(2));
        assert_eq!(u(7).cmp(&u(7)), Ordering::Equal);
    }

    #[test]
    fn isqrt_values() {
        assert_eq!(U256::ZERO.isqrt(), U256::ZERO);
        assert_eq!(u(1).isqrt(), u(1));
        assert_eq!(u(15).isqrt(), u(3));
        assert_eq!(u(16).isqrt(), u(4));
        let big = U256::ONE << 200;
        assert_eq!(big.isqrt(), U256::ONE << 100);
    }

    #[test]
    fn f64_lossy() {
        assert_eq!(u(0).to_f64_lossy(), 0.0);
        assert_eq!(u(1_000_000).to_f64_lossy(), 1_000_000.0);
        let eth = U256::from_u128(1_000_000_000_000_000_000);
        assert!((eth.to_f64_lossy() - 1e18).abs() < 1.0);
    }

    #[test]
    fn sum_iterator() {
        let xs = [u(1), u(2), u(3)];
        let s: U256 = xs.iter().sum();
        assert_eq!(s, u(6));
        let s2: U256 = xs.into_iter().sum();
        assert_eq!(s2, u(6));
    }

    #[test]
    fn serde_json_roundtrip() {
        let v = U256::from_u128(123_456_789_000_000_000_000_000_000);
        let s = serde_json::to_string(&v).unwrap();
        assert_eq!(s, "\"123456789000000000000000000\"");
        let back: U256 = serde_json::from_str(&s).unwrap();
        assert_eq!(back, v);
    }
}
