//! Unsigned LEB128 lengths.
//!
//! Frame v3 of the `lpbcast-net` codec writes every count, length,
//! process id, sequence number, incarnation, timestamp and hop count as
//! an unsigned LEB128 varint: seven bits a byte, least significant group
//! first, the high bit set on every byte but the last. The codec lives
//! in `lpbcast-net`; this crate holds only the length, so the types that
//! keep their own encoded size (the `unSubs` digest in `lpbcast-core`)
//! can count bytes without depending on the codec.

/// Bytes of the shortest LEB128 encoding of `value`: 1 for `0..=127`, up
/// to 10 for `u64::MAX`.
///
/// ```
/// use lpbcast_types::varint;
///
/// assert_eq!(varint::len(0), 1);
/// assert_eq!(varint::len(127), 1);
/// assert_eq!(varint::len(128), 2);
/// assert_eq!(varint::len(u64::MAX), 10);
/// ```
pub const fn len(value: u64) -> usize {
    // ⌈bits / 7⌉ for bits in 1..=64, as (9 · bits + 64) / 64: a
    // multiply-add and a shift instead of a division.
    let bits = 64 - (value | 1).leading_zeros() as usize;
    (9 * bits + 64) >> 6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_is_seven_bits_a_byte_rounded_up() {
        for bits in 1..=64usize {
            let top = u64::MAX >> (64 - bits);
            assert_eq!(len(top), bits.div_ceil(7), "{bits} bits");
        }
    }

    #[test]
    fn length_steps_at_every_seven_bits() {
        for groups in 1..10usize {
            let top = (1u64 << (7 * groups)) - 1;
            assert_eq!(len(top), groups, "{top}");
            assert_eq!(len(top + 1), groups + 1, "{}", top + 1);
        }
        assert_eq!(len(1 << 63), 10);
        assert_eq!(len(u64::MAX), 10);
    }
}
