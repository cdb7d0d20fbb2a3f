//! SAX words: fixed-cardinality symbolic encodings of PAA signatures
//! (§III-B, Figure 1(a)).
//!
//! A SAX word assigns every PAA segment the index of the N(0,1)-equiprobable
//! stripe containing its mean. All segments share one cardinality; the iSAX
//! variant in [`crate::isax`] relaxes that.

use crate::breakpoints::symbol_for;
use crate::paa::paa;

/// A SAX word: per-segment stripe indices under a single cardinality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SaxWord {
    /// Stripe index of each segment, low stripe = 0.
    pub symbols: Vec<u16>,
    /// The shared cardinality (power of two).
    pub cardinality: u32,
}

impl SaxWord {
    /// Word length `w` (number of segments).
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True for an empty word (never produced by [`sax_word`]).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }
}

/// Computes the SAX word of a (z-normalised) series with `segments` segments
/// and the given power-of-two `cardinality`.
pub fn sax_word(values: &[f32], segments: usize, cardinality: u32) -> SaxWord {
    let p = paa(values, segments);
    sax_from_paa(&p, cardinality)
}

/// Quantises an existing PAA signature into a SAX word.
pub fn sax_from_paa(paa_sig: &[f64], cardinality: u32) -> SaxWord {
    SaxWord {
        symbols: paa_sig
            .iter()
            .map(|&m| symbol_for(m, cardinality))
            .collect(),
        cardinality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a series whose 4 segment means are the given values
    /// (3 readings per segment as in Figure 1).
    fn series_with_means(means: [f32; 4]) -> Vec<f32> {
        means
            .iter()
            .flat_map(|&m| [m - 0.05, m, m + 0.05])
            .collect()
    }

    #[test]
    fn paper_figure1a_word() {
        // Figure 1(a): SAX = [000, 010, 101, 111] under w=4, c=8.
        // Stripe boundaries for c=8: [-1.15,-0.67,-0.32,0,0.32,0.67,1.15].
        // Pick segment means inside stripes 0, 2, 5, 7.
        let x = series_with_means([-1.5, -0.5, 0.5, 1.5]);
        let w = sax_word(&x, 4, 8);
        assert_eq!(w.symbols, vec![0, 2, 5, 7]);
    }

    #[test]
    fn lossy_collision_from_section_iiib() {
        // §III-B: segments a and c fall in one stripe, b and d in another —
        // SAX cannot tell (a,b) apart from (c,d).
        let a_b = series_with_means([0.9, -0.45, 0.9, -0.45]);
        let c_d = series_with_means([0.8, -0.5, 0.8, -0.5]);
        let w1 = sax_word(&a_b, 4, 8);
        let w2 = sax_word(&c_d, 4, 8);
        assert_eq!(w1, w2, "SAX must collide these by construction");
    }

    #[test]
    fn higher_cardinality_refines() {
        let x = series_with_means([-1.5, -0.5, 0.5, 1.5]);
        let coarse = sax_word(&x, 4, 4);
        let fine = sax_word(&x, 4, 8);
        // Fine symbols, shifted right by one bit, give the coarse symbols.
        for (c, f) in coarse.symbols.iter().zip(fine.symbols.iter()) {
            assert_eq!(*c, f >> 1);
        }
    }

    #[test]
    fn word_hashable_and_comparable() {
        use std::collections::HashSet;
        let x = series_with_means([0.0, 0.0, 0.0, 0.0]);
        let mut set = HashSet::new();
        set.insert(sax_word(&x, 4, 8));
        assert!(set.contains(&sax_word(&x, 4, 8)));
    }
}
