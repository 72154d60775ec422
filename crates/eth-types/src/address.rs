//! 20-byte Ethereum account addresses.

use core::cmp::Ordering;
use core::fmt;
use core::str::FromStr;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::hash::keccak256;
use crate::hexcodec::{decode_hex, HexError};
use crate::rlp;

/// An Ethereum address — the low 20 bytes of a Keccak-256 hash.
///
/// Ordered byte-lexicographically, like `[u8; 20]`, but compared as
/// three big-endian words (see [`Ord`] below): every B-tree and sort
/// over addresses iterates in the same order as the derived one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The zero address (burn / unset sentinel).
    pub const ZERO: Address = Address([0; 20]);

    /// Returns the raw bytes.
    #[inline]
    pub const fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Derives the address of a contract created by `sender` at `nonce`,
    /// exactly as mainnet `CREATE` does:
    /// `keccak256(rlp([sender, nonce]))[12..]`.
    pub fn create(sender: Address, nonce: u64) -> Address {
        let mut payload = Vec::with_capacity(32);
        rlp::encode_bytes(&sender.0, &mut payload);
        rlp::encode_uint(nonce, &mut payload);
        let mut encoded = Vec::with_capacity(payload.len() + 4);
        rlp::wrap_list(&payload, &mut encoded);
        let h = keccak256(&encoded);
        let mut out = [0u8; 20];
        out.copy_from_slice(&h.0[12..]);
        Address(out)
    }

    /// Derives an EOA address from an opaque key seed (the simulator's
    /// stand-in for secp256k1 public-key derivation):
    /// `keccak256(seed)[12..]`. Deterministic and collision-resistant,
    /// which is all the pipeline relies on.
    pub fn from_key_seed(seed: &[u8]) -> Address {
        let h = keccak256(seed);
        let mut out = [0u8; 20];
        out.copy_from_slice(&h.0[12..]);
        Address(out)
    }

    /// Full hex form with `0x` prefix, lowercase.
    pub fn to_hex(&self) -> String {
        self.hex().as_str().to_owned()
    }

    /// The [`to_hex`](Self::to_hex) form on the stack, for the writers
    /// that copy it straight into their output.
    fn hex(&self) -> HexForm {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = [b'0'; 42];
        out[1] = b'x';
        for (i, b) in self.0.iter().enumerate() {
            out[2 + 2 * i] = DIGITS[usize::from(b >> 4)];
            out[3 + 2 * i] = DIGITS[usize::from(b & 0xf)];
        }
        HexForm(out)
    }

    /// EIP-55 mixed-case checksummed form, as explorers display
    /// addresses: each hex letter is uppercased iff the corresponding
    /// nibble of `keccak256(lowercase_hex_without_prefix)` is ≥ 8.
    pub fn to_checksum(&self) -> String {
        let lower = self.to_hex();
        let hash = keccak256(&lower.as_bytes()[2..]);
        let mut out = String::with_capacity(42);
        out.push_str("0x");
        for (i, c) in lower[2..].chars().enumerate() {
            let nibble = (hash.0[i / 2] >> (4 * (1 - i % 2))) & 0xf;
            if c.is_ascii_alphabetic() && nibble >= 8 {
                out.push(c.to_ascii_uppercase());
            } else {
                out.push(c);
            }
        }
        out
    }

    /// Verifies an EIP-55 checksummed string: parses it and checks the
    /// letter casing matches the checksum exactly. All-lowercase and
    /// all-uppercase inputs are accepted (no checksum information).
    pub fn from_checksum(s: &str) -> Result<Self, HexError> {
        let address = Address::from_hex(s)?;
        let body = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")).unwrap_or(s);
        let has_lower = body.chars().any(|c| c.is_ascii_lowercase());
        let has_upper = body.chars().any(|c| c.is_ascii_uppercase());
        if has_lower && has_upper {
            let expect = address.to_checksum();
            if body != &expect[2..] {
                return Err(HexError::InvalidChar { at: 0 });
            }
        }
        Ok(address)
    }

    /// Parses a 0x-prefixed or bare 40-nibble hex string.
    pub fn from_hex(s: &str) -> Result<Self, HexError> {
        let bytes = decode_hex(s)?;
        if bytes.len() != 20 {
            return Err(HexError::BadLength { expected: 20, got: bytes.len() });
        }
        let mut out = [0u8; 20];
        out.copy_from_slice(&bytes);
        Ok(Address(out))
    }

    /// Abbreviated display like explorers use: `0x7a0d6f…c9cb`.
    pub fn short(&self) -> String {
        let h = self.to_hex();
        format!("{}…{}", &h[..8], &h[38..])
    }

    /// The first six hex digits after `0x` — the paper's fallback naming
    /// scheme for unlabeled DaaS families ("first six bits of their
    /// operator accounts", §7.1).
    pub fn prefix6(&self) -> String {
        self.to_hex()[..8].to_owned()
    }

    /// First 8 bytes as a big-endian u64 — a cheap deterministic key for
    /// sampling/sharding.
    pub fn to_low_u64(&self) -> u64 {
        self.words().0
    }

    /// Bytes 0–7, 8–15 and 16–19 as big-endian words. Comparing the
    /// tuples compares the bytes lexicographically.
    #[inline]
    pub(crate) fn words(&self) -> (u64, u64, u32) {
        let b = &self.0;
        (
            u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
            u64::from_be_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]),
            u32::from_be_bytes([b[16], b[17], b[18], b[19]]),
        )
    }
}

/// The byte order of `[u8; 20]` in three word compares instead of a
/// `memcmp` call: address sets and maps probe on every query and window.
impl Ord for Address {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.words().cmp(&other.words())
    }
}

impl PartialOrd for Address {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An address's `0x` + 40 lowercase hex digits.
struct HexForm([u8; 42]);

impl HexForm {
    fn as_str(&self) -> &str {
        core::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }
}

/// The hex form as it is: width, fill and alignment flags are ignored.
impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.hex().as_str())
    }
}

/// The hex form as it is: width, fill and alignment flags are ignored.
impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.hex().as_str())
    }
}

impl FromStr for Address {
    type Err = HexError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Address::from_hex(s)
    }
}

impl Serialize for Address {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.hex().as_str())
    }
}

impl<'de> Deserialize<'de> for Address {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Address::from_hex(&s).map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_derivation_known_vector() {
        // Widely published vector: sender 0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0
        // nonce 0 creates 0xcd234a471b72ba2f1ccf0a70fcaba648a5eecd8d.
        let sender = Address::from_hex("0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0").unwrap();
        assert_eq!(
            Address::create(sender, 0).to_hex(),
            "0xcd234a471b72ba2f1ccf0a70fcaba648a5eecd8d"
        );
        assert_eq!(
            Address::create(sender, 1).to_hex(),
            "0x343c43a37d37dff08ae8c4a11544c718abb4fcf8"
        );
    }

    #[test]
    fn create_nonce_sensitivity() {
        let sender = Address::from_key_seed(b"deployer");
        let a = Address::create(sender, 0);
        let b = Address::create(sender, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn hex_roundtrip() {
        let a = Address::from_key_seed(b"x");
        assert_eq!(Address::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn bad_length() {
        assert!(matches!(
            Address::from_hex("0x1234"),
            Err(HexError::BadLength { expected: 20, got: 2 })
        ));
    }

    #[test]
    fn short_and_prefix() {
        let a = Address::from_hex("0x7a0d6f390166b3eb4fa3f65bdc2c0bebbe37c9cb").unwrap();
        assert_eq!(a.short(), "0x7a0d6f…c9cb");
        assert_eq!(a.prefix6(), "0x7a0d6f");
    }

    #[test]
    fn eip55_known_vectors() {
        // Test vectors from EIP-55 itself.
        for v in [
            "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed",
            "0xfB6916095ca1df60bB79Ce92cE3Ea74c37c5d359",
            "0xdbF03B407c01E7cD3CBea99509d93f8DDDC8C6FB",
            "0xD1220A0cf47c7B9Be7A2E6BA89F429762e7b9aDb",
        ] {
            let a = Address::from_hex(v).unwrap();
            assert_eq!(a.to_checksum(), v);
        }
    }

    #[test]
    fn eip55_verification() {
        let good = "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed";
        assert!(Address::from_checksum(good).is_ok());
        // One flipped letter case fails.
        let bad = "0x5aaeb6053F3E94C9b9A09f33669435E7Ef1BeAed";
        assert!(Address::from_checksum(bad).is_err());
        // All-lowercase carries no checksum and is accepted.
        assert!(Address::from_checksum(&good.to_lowercase()).is_ok());
        // Bare (unprefixed) checksummed input verifies too.
        assert!(Address::from_checksum(&good[2..]).is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let a = Address::from_key_seed(b"serde");
        let s = serde_json::to_string(&a).unwrap();
        let back: Address = serde_json::from_str(&s).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn every_text_form_is_the_hex_form() {
        let a = Address::from_hex("0x7a0d6f390166b3eb4fa3f65bdc2c0bebbe37c9cb").unwrap();
        let hex = a.to_hex();
        assert_eq!(hex, "0x7a0d6f390166b3eb4fa3f65bdc2c0bebbe37c9cb");
        for addr in [a, Address::ZERO, Address([0xff; 20])] {
            let hex = addr.to_hex();
            assert_eq!(format!("{addr}"), hex);
            assert_eq!(format!("{addr:?}"), hex);
            // Width and alignment flags do not pad the form.
            assert_eq!(format!("{addr:>50}"), hex);
            assert_eq!(format!("{addr:<50?}"), hex);
            assert_eq!(serde_json::to_string(&addr).unwrap(), format!("\"{hex}\""));
        }
        assert_eq!(Address::ZERO.to_hex(), format!("0x{}", "0".repeat(40)));
        assert_eq!(Address([0xff; 20]).to_hex(), format!("0x{}", "f".repeat(40)));
    }

    #[test]
    fn key_seed_distinct() {
        assert_ne!(Address::from_key_seed(b"a"), Address::from_key_seed(b"b"));
    }
}
