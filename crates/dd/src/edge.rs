//! Complemented-edge encoding: one bit in every node id that negates the
//! function the edge points to.
//!
//! An edge value is an arena id with bit 30 ([`CPL_BIT`]) optionally
//! set. A set bit means "the negation of the function rooted at the
//! pointed-to node".
//! Terminals are never complemented: [`negate`] maps `ZERO ↔ ONE`
//! directly, so a complemented edge always points at a decision node.
//!
//! Canonical form (enforced by the kernel's `mk` when complement mode is
//! on): the stored high/then child of every node is *regular* — either
//! `ONE` or a plain (uncomplemented) non-terminal. A node whose high
//! child would be complemented or `ZERO` is stored with both children
//! negated and returned as a complemented edge instead. Exactly one of
//! `f` / `¬f` has a regular top edge, so the representation stays unique
//! and `id` equality remains function equality — while `f` and `¬f`
//! share every node, halving diagram sizes for functions paired with
//! their negations and making negation an O(1) bit flip.

use crate::kernel::{ONE, ZERO};

/// The complement bit: set on an edge value to denote the negation of
/// the pointed-to node's function. Arena ids must stay below `2^30`
/// (16 GiB of 16-byte node headers) for the bit to stay free.
pub const CPL_BIT: u32 = 1 << 30;

/// True if the edge carries the complement bit.
#[inline]
pub fn is_complemented(id: u32) -> bool {
    id & CPL_BIT != 0
}

/// The underlying node id with the complement bit cleared.
#[inline]
pub fn strip(id: u32) -> u32 {
    id & !CPL_BIT
}

/// The edge denoting the negation of `id`'s function.
///
/// Terminals negate to each other (they never carry the bit); every
/// other edge just toggles [`CPL_BIT`].
#[inline]
pub fn negate(id: u32) -> u32 {
    match id {
        ZERO => ONE,
        ONE => ZERO,
        _ => id ^ CPL_BIT,
    }
}

/// [`negate`] applied only when `cond` holds (parity propagation).
#[inline]
pub fn negate_if(cond: bool, id: u32) -> u32 {
    if cond {
        negate(id)
    } else {
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_never_carry_the_bit() {
        assert_eq!(negate(ZERO), ONE);
        assert_eq!(negate(ONE), ZERO);
        assert!(!is_complemented(negate(ZERO)));
        assert!(!is_complemented(negate(ONE)));
    }

    #[test]
    fn nonterminals_toggle_the_bit() {
        let id = 42u32;
        let n = negate(id);
        assert!(is_complemented(n));
        assert_eq!(strip(n), id);
        assert_eq!(negate(n), id, "negation is an involution");
    }

    #[test]
    fn negate_if_propagates_parity() {
        assert_eq!(negate_if(false, 7), 7);
        assert_eq!(negate_if(true, 7), 7 | CPL_BIT);
        assert_eq!(negate_if(true, ZERO), ONE);
    }
}
