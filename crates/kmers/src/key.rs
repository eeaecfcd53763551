//! Table keys as wide as k needs.
//!
//! [`Kmer`] holds any k up to [`MAX_K`] in four words plus its k: 40 bytes,
//! whatever k is. The two hot k-mer tables — the counts table, which is also
//! the de Bruijn graph, and the aligner's seed index — key their entries by a
//! [`KmerKey`] instead, one of three widths that [`KeyWidth::of`] picks from
//! k once per stage call:
//!
//! * [`Kmer32`] — one word, for k ≤ 32;
//! * [`Kmer64`] — two words, for k ≤ 64;
//! * [`Kmer`] itself, up to [`MAX_K`].
//!
//! A key is the packed words of a k-mer (the layout of [`Kmer`]); its k is
//! the table's, so a narrow key does not store it. Tables take and return
//! [`Kmer`] at their public edges ([`KmerKey::of_kmer`],
//! [`KmerKey::to_kmer`]), and the hot loops build keys straight from rolled
//! words ([`KmerKey::of_words`]) without a `Kmer` per window.
//!
//! The narrow keys hash through a finaliser ([`KmerKey::key_hash`]). FxHash
//! on a bare word is one multiplication, and the low bits of a product depend
//! only on the low bits of the word, which hold a k-mer's *first* bases: a
//! hash table's bucket index and a `hash % ranks` owner would both read the
//! first base or two of a canonical k-mer, which is skewed toward `A`/`C`.

use crate::kmer::{Kmer, MAX_K};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A k-mer as a table key. Equality is k-mer equality at the table's k; the
/// [`Hash`] of a key writes its [`KmerKey::key_hash`] (one round of the
/// table's hasher) for the narrow widths.
pub trait KmerKey: Copy + Eq + Hash + fmt::Debug + Send + Sync + 'static {
    /// The largest k this width holds.
    const MAX_K: usize;

    /// The key of `kmer`, whose k is at most [`KmerKey::MAX_K`].
    fn of_kmer(kmer: &Kmer) -> Self;

    /// The k-mer this key holds, at the table's `k`.
    fn to_kmer(&self, k: usize) -> Kmer;

    /// The key of the `k`-mer whose packed words are `words` (bits past `2k`
    /// zero, `N` at least the words this width holds or k needs).
    fn of_words<const N: usize>(words: &[u64; N], k: usize) -> Self;

    /// A well-spread 64-bit hash of the key, stable across ranks and runs:
    /// its low bits decide an owner rank (`hash % ranks`), its high bits a
    /// slot.
    fn key_hash(&self) -> u64;
}

/// The key width a k needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyWidth {
    /// [`Kmer32`]: k ≤ 32.
    One,
    /// [`Kmer64`]: k ≤ 64.
    Two,
    /// [`Kmer`]: k ≤ [`MAX_K`].
    Wide,
}

impl KeyWidth {
    /// The narrowest width that holds a `k`-mer.
    pub fn of(k: usize) -> KeyWidth {
        assert!(
            (1..=MAX_K).contains(&k),
            "k must be in 1..={MAX_K}, got {k}"
        );
        if k <= Kmer32::MAX_K {
            KeyWidth::One
        } else if k <= Kmer64::MAX_K {
            KeyWidth::Two
        } else {
            KeyWidth::Wide
        }
    }
}

/// Mixes a key word: the multiplication carries every base into the high
/// half, and the shift folds the high half back into the low bits that a
/// bucket index and `hash % ranks` read. One multiplication: a full
/// finaliser (MurmurHash3's takes two) made k-mer counting ~10% slower on a
/// 2-vCPU x86-64 host.
#[inline]
fn mix(w: u64) -> u64 {
    let h = w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// A k-mer of k ≤ 32 as a table key: its `2k` bits in one word (base `i` in
/// bits `2i..2i+2`, the rest zero).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Kmer32(u64);

/// A k-mer of k ≤ 64 as a table key: its `2k` bits in two words.
///
/// Not a `u128`: `u128` is 16-aligned on x86-64 (rustc 1.77 and later,
/// checked with 1.95), so a `(u128, KmerCounts)` table entry pads to 64 bytes
/// where `([u64; 2], KmerCounts)` takes 56.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Kmer64([u64; 2]);

impl Hash for Kmer32 {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.key_hash());
    }
}

impl Hash for Kmer64 {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.key_hash());
    }
}

impl fmt::Debug for Kmer32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kmer32({:#018x})", self.0)
    }
}

impl fmt::Debug for Kmer64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kmer64({:#018x}, {:#018x})", self.0[1], self.0[0])
    }
}

impl KmerKey for Kmer32 {
    const MAX_K: usize = 32;

    #[inline]
    fn of_kmer(kmer: &Kmer) -> Self {
        debug_assert!(kmer.k() <= Self::MAX_K);
        Kmer32(kmer.words()[0])
    }

    #[inline]
    fn to_kmer(&self, k: usize) -> Kmer {
        Kmer::from_words([self.0, 0, 0, 0], k)
    }

    #[inline]
    fn of_words<const N: usize>(words: &[u64; N], k: usize) -> Self {
        debug_assert!(k <= Self::MAX_K && words[1..].iter().all(|&w| w == 0));
        Kmer32(words[0])
    }

    #[inline]
    fn key_hash(&self) -> u64 {
        mix(self.0)
    }
}

impl KmerKey for Kmer64 {
    const MAX_K: usize = 64;

    #[inline]
    fn of_kmer(kmer: &Kmer) -> Self {
        debug_assert!(kmer.k() <= Self::MAX_K);
        let w = kmer.words();
        Kmer64([w[0], w[1]])
    }

    #[inline]
    fn to_kmer(&self, k: usize) -> Kmer {
        Kmer::from_words([self.0[0], self.0[1], 0, 0], k)
    }

    #[inline]
    fn of_words<const N: usize>(words: &[u64; N], k: usize) -> Self {
        debug_assert!(k <= Self::MAX_K && words.iter().skip(2).all(|&w| w == 0));
        Kmer64([words[0], if N > 1 { words[1] } else { 0 }])
    }

    #[inline]
    fn key_hash(&self) -> u64 {
        mix(self.0[0] ^ mix(self.0[1]))
    }
}

impl KmerKey for Kmer {
    const MAX_K: usize = MAX_K;

    #[inline]
    fn of_kmer(kmer: &Kmer) -> Self {
        *kmer
    }

    #[inline]
    fn to_kmer(&self, k: usize) -> Kmer {
        debug_assert_eq!(self.k(), k);
        *self
    }

    #[inline]
    fn of_words<const N: usize>(words: &[u64; N], k: usize) -> Self {
        let mut all = [0u64; 4];
        all[..N].copy_from_slice(words);
        Kmer::from_words(all, k)
    }

    #[inline]
    fn key_hash(&self) -> u64 {
        self.owner_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht::fx_hash_one;

    /// Pseudo-random k-mers off an xorshift stream.
    fn random_kmers(k: usize, n: usize, seed: u64) -> Vec<Kmer> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                let seq: Vec<u8> = (0..k)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        b"ACGT"[(state >> 32) as usize % 4]
                    })
                    .collect();
                Kmer::from_bytes(&seq).expect("ACGT")
            })
            .collect()
    }

    fn round_trip<K: KmerKey>(k: usize) {
        for kmer in random_kmers(k, 200, k as u64) {
            let key = K::of_kmer(&kmer);
            assert_eq!(key.to_kmer(k), kmer, "k = {k}");
            assert_eq!(K::of_words(kmer.words(), k), key, "k = {k}");
        }
    }

    #[test]
    fn every_width_round_trips_at_its_boundaries() {
        for k in [1, 21, 31, 32] {
            round_trip::<Kmer32>(k);
        }
        for k in [1, 31, 33, 63, 64] {
            round_trip::<Kmer64>(k);
        }
        for k in [1, 33, 65, 99, MAX_K] {
            round_trip::<Kmer>(k);
        }
        assert_eq!(KeyWidth::of(32), KeyWidth::One);
        assert_eq!(KeyWidth::of(33), KeyWidth::Two);
        assert_eq!(KeyWidth::of(64), KeyWidth::Two);
        assert_eq!(KeyWidth::of(65), KeyWidth::Wide);
    }

    /// The largest relative deviation from an even share over `buckets`.
    fn worst_share(counts: &[usize]) -> f64 {
        let total: usize = counts.iter().sum();
        let even = total as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - even).abs() / even)
            .fold(0.0, f64::max)
    }

    /// Owners (`key_hash % ranks`) and the low 12 bits of the table hash
    /// (`fx_hash_one` of the key, hashbrown's bucket index) spread evenly
    /// over canonical seeds and k-mers, whose first bases are skewed.
    fn spreads_evenly<K: KmerKey>(k: usize) {
        let keys: Vec<K> = random_kmers(k, 200_000, 7 + k as u64)
            .iter()
            .map(|kmer| K::of_kmer(&kmer.canonical().0))
            .collect();
        for ranks in [2usize, 3, 4, 8] {
            let mut owners = vec![0usize; ranks];
            for key in &keys {
                owners[(key.key_hash() % ranks as u64) as usize] += 1;
            }
            let worst = worst_share(&owners);
            assert!(worst < 0.02, "k = {k}, {ranks} ranks: {owners:?}");
        }
        // Every one of the low 12 bits splits the keys in half.
        for bit in 0..12 {
            let mut halves = [0usize; 2];
            for key in &keys {
                halves[(fx_hash_one(key) >> bit) as usize & 1] += 1;
            }
            let worst = worst_share(&halves);
            assert!(worst < 0.02, "k = {k}, bucket bit {bit}: {halves:?}");
        }
    }

    #[test]
    fn narrow_keys_spread_over_owners_and_buckets() {
        for k in [15, 21] {
            spreads_evenly::<Kmer32>(k);
            spreads_evenly::<Kmer64>(k);
        }
        spreads_evenly::<Kmer64>(43);
        // The reason for the finaliser: a bare word's FxHash owner is its
        // canonical k-mer's first base at 4 ranks.
        let mut owners = [0usize; 4];
        for kmer in random_kmers(21, 20_000, 3) {
            owners[(fx_hash_one(&kmer.canonical().0.words()[0]) % 4) as usize] += 1;
        }
        assert!(worst_share(&owners) > 0.2, "{owners:?}");
    }
}
