//! Suspicious-domain triage: keyword and fuzzy matching over domain
//! tokens.

use serde::{Deserialize, Serialize};

use crate::keywords::SUSPICIOUS_KEYWORDS;
use crate::lev::{damerau_similarity, similarity};

/// How a domain matched the keyword list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MatchKind {
    /// A token (or label substring for long keywords) equals the keyword.
    Exact,
    /// A token is within Levenshtein similarity of the keyword; the ratio
    /// is carried for reporting.
    Fuzzy(f64),
}

/// A triage hit: which keyword fired and how.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriageHit {
    /// The keyword from the curated list.
    pub keyword: &'static str,
    /// Exact or fuzzy, with the similarity ratio when fuzzy.
    pub kind: MatchKind,
}

/// The domain triage filter (paper §8.2 step 1).
#[derive(Debug, Clone)]
pub struct DomainTriage {
    keywords: Vec<&'static str>,
    threshold: f64,
    transpositions: bool,
}

impl Default for DomainTriage {
    fn default() -> Self {
        Self::new(0.8)
    }
}

impl DomainTriage {
    /// Creates a triage filter with the paper's keyword list and the given
    /// fuzzy-similarity threshold (the paper uses 0.8).
    pub fn new(threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold), "threshold must be in [0,1]");
        DomainTriage { keywords: SUSPICIOUS_KEYWORDS.to_vec(), threshold, transpositions: false }
    }

    /// Uses Damerau–Levenshtein similarity so adjacent-transposition
    /// typos (`airdorp`) cost one edit — an extension over the paper's
    /// plain Levenshtein.
    pub fn with_transpositions(mut self) -> Self {
        self.transpositions = true;
        self
    }

    /// Replaces the keyword list (for ablations).
    pub fn with_keywords(mut self, keywords: Vec<&'static str>) -> Self {
        self.keywords = keywords;
        self
    }

    /// The configured fuzzy threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Assesses a domain. Returns the best hit (exact beats fuzzy; higher
    /// similarity beats lower), or `None` if nothing fires.
    ///
    /// Tokenisation: the registrable labels (everything left of the TLD)
    /// are lowercased and split on `-`, `.` and `_`. Digits stay inside
    /// tokens so leet-speak typos (`cla1m`) remain one token for the
    /// fuzzy pass. Exact matching also scans whole labels for keyword
    /// substrings of length ≥ 5 (so `walletclaim.com` fires) — shorter
    /// keywords must match a whole token to avoid firing on e.g. `win`
    /// in `winter`.
    pub fn assess(&self, domain: &str) -> Option<TriageHit> {
        let lower = domain.to_lowercase();
        let labels = strip_tld(&lower);
        let tokens = tokenize(labels);
        let token_chars: Vec<usize> = tokens.iter().map(|t| t.chars().count()).collect();
        let mut best: Option<TriageHit> = None;
        for &kw in &self.keywords {
            // Exact: whole token match, or substring for long keywords.
            let exact = tokens.contains(&kw)
                || (kw.len() >= 5 && labels.contains(kw));
            if exact {
                return Some(TriageHit { keyword: kw, kind: MatchKind::Exact });
            }
            // Fuzzy: per-token similarity.
            let kw_chars = kw.chars().count();
            for (t, &t_chars) in tokens.iter().zip(&token_chars) {
                if let Some(sim) = self.fuzzy(t, t_chars, kw, kw_chars) {
                    let better = match &best {
                        None => true,
                        Some(TriageHit { kind: MatchKind::Fuzzy(s), .. }) => sim > *s,
                        Some(TriageHit { kind: MatchKind::Exact, .. }) => false,
                    };
                    if better {
                        best = Some(TriageHit { keyword: kw, kind: MatchKind::Fuzzy(sim) });
                    }
                }
            }
        }
        best
    }

    /// The similarity of `token` to `keyword` (lengths in chars) if it
    /// reaches the threshold. Either edit distance is at least the
    /// difference in length, so `1 − |Δlen| / max_len` bounds the
    /// similarity from above; when that bound is already below the
    /// threshold the distance is never computed. The bound is exact in
    /// floating point too: division and subtraction round monotonically.
    fn fuzzy(
        &self,
        token: &str,
        token_chars: usize,
        keyword: &str,
        keyword_chars: usize,
    ) -> Option<f64> {
        let max_chars = token_chars.max(keyword_chars);
        if max_chars > 0 {
            let bound = 1.0 - token_chars.abs_diff(keyword_chars) as f64 / max_chars as f64;
            if bound < self.threshold {
                return None;
            }
        }
        let sim = if self.transpositions {
            damerau_similarity(token, keyword)
        } else {
            similarity(token, keyword)
        };
        (sim >= self.threshold).then_some(sim)
    }

    /// Bulk assessment, keeping only hits.
    pub fn filter<'d>(
        &self,
        domains: impl IntoIterator<Item = &'d str>,
    ) -> Vec<(&'d str, TriageHit)> {
        domains
            .into_iter()
            .filter_map(|d| self.assess(d).map(|h| (d, h)))
            .collect()
    }
}

/// Everything left of the final label (the TLD). `claim-eth.pages.dev`
/// keeps `claim-eth.pages`.
fn strip_tld(domain: &str) -> &str {
    match domain.rfind('.') {
        Some(i) => &domain[..i],
        None => domain,
    }
}

fn tokenize(labels: &str) -> Vec<&str> {
    labels
        .split(['-', '.', '_'])
        .filter(|t| !t.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_token_hits() {
        let t = DomainTriage::default();
        let hit = t.assess("claim-pepe.com").unwrap();
        assert_eq!(hit.kind, MatchKind::Exact);
        assert!(["claim", "pepe"].contains(&hit.keyword));
        assert!(t.assess("mint.azuki-event.xyz").is_some());
        assert!(t.assess("official-airdrop.app").is_some());
    }

    #[test]
    fn long_keyword_substring_hits() {
        let t = DomainTriage::default();
        // "claim" (len 5) matches inside a fused label.
        let hit = t.assess("walletclaim.com").unwrap();
        assert_eq!(hit.kind, MatchKind::Exact);
    }

    #[test]
    fn short_keyword_requires_whole_token() {
        let t = DomainTriage::default();
        // "win" must not fire inside "winter".
        assert!(t.assess("winterwonder.org").is_none());
        // But fires as a token.
        assert!(t.assess("win-big.org").is_some());
    }

    #[test]
    fn fuzzy_typo_hits() {
        let t = DomainTriage::default();
        let hit = t.assess("cla1m-rewards-portal.net");
        // "rewards" and "portal" are exact; force a pure-fuzzy case:
        let hit2 = t.assess("cla1m.net").unwrap();
        match hit2.kind {
            MatchKind::Fuzzy(s) => assert!(s >= 0.8),
            MatchKind::Exact => panic!("expected fuzzy"),
        }
        assert!(hit.is_some());
    }

    #[test]
    fn digits_stay_in_tokens() {
        let t = DomainTriage::default();
        // "airdr0p" is one token; fuzzy vs "airdrop" at sim 6/7 ≈ 0.857.
        let hit = t.assess("airdr0p.com").unwrap();
        assert_eq!(hit.keyword, "airdrop");
        assert!(matches!(hit.kind, MatchKind::Fuzzy(s) if s >= 0.8));
        // Boundary case we accept missing: a digit *appended* to a short
        // keyword dilutes similarity below 0.8.
        assert!(t.assess("mint24.com").is_none());
        // Whereas a long keyword plus digits still exact-substring-fires.
        assert!(t.assess("claim2024.com").is_some());
    }

    #[test]
    fn benign_domains_pass_through() {
        let t = DomainTriage::default();
        for d in ["weather-report.com", "johns-bakery.net", "kernel.org", "rust-lang.org"] {
            assert!(t.assess(d).is_none(), "false hit on {d}");
        }
    }

    #[test]
    fn benign_lookalikes_are_the_cost_of_fuzzy() {
        // An insurance-claims site legitimately contains "claims": the
        // paper's triage forwards it to crawling, which then clears it.
        let t = DomainTriage::default();
        assert!(t.assess("acme-insurance-claims.com").is_some());
    }

    #[test]
    fn filter_bulk() {
        let t = DomainTriage::default();
        let hits = t.filter(vec!["claim-x.com", "plainsite.org", "mint-nft.xyz"]);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn threshold_is_configurable() {
        let strict = DomainTriage::new(1.0);
        assert!(strict.assess("cla1m.net").is_none());
        let loose = DomainTriage::new(0.6);
        assert!(loose.assess("cla1m.net").is_some());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let _ = DomainTriage::new(1.5);
    }

    #[test]
    fn transposition_mode_catches_swapped_typos() {
        let plain = DomainTriage::default();
        assert!(plain.assess("airdorp.com").is_none(), "plain Levenshtein misses the swap");
        let damerau = DomainTriage::default().with_transpositions();
        let hit = damerau.assess("airdorp.com").expect("Damerau catches it");
        assert_eq!(hit.keyword, "airdrop");
        // Benign domains still pass in transposition mode.
        assert!(damerau.assess("weather-report.com").is_none());
    }

    /// Tokens near and far from every keyword: the keyword itself, one
    /// deletion, insertion, substitution or adjacent swap away, halves,
    /// affixed forms, non-ASCII look-alikes and unrelated words.
    fn token_corpus() -> Vec<String> {
        let others =
            ["a", "ab", "xyz", "weather", "bakery", "insurance", "cl\u{0430}im", "\u{00e9}v\u{00e9}nement"];
        let mut corpus: Vec<String> = others.iter().map(|t| t.to_string()).collect();
        for kw in SUSPICIOUS_KEYWORDS {
            let chars: Vec<char> = kw.chars().collect();
            let word = |cs: &[char]| cs.iter().collect::<String>();
            corpus.push(kw.to_string());
            corpus.push(format!("{kw}2024"));
            corpus.push(format!("web3{kw}"));
            corpus.push(word(&chars[..chars.len() / 2]));
            corpus.push(word(&chars[chars.len() / 2..]));
            for i in 0..chars.len() {
                let mut edit = chars.clone();
                edit.remove(i);
                corpus.push(word(&edit));
                let mut edit = chars.clone();
                edit[i] = '1';
                corpus.push(word(&edit));
                let mut edit = chars.clone();
                edit.insert(i, 'x');
                corpus.push(word(&edit));
                if i + 1 < chars.len() {
                    let mut edit = chars.clone();
                    edit.swap(i, i + 1);
                    corpus.push(word(&edit));
                }
            }
        }
        corpus
    }

    #[test]
    fn length_bound_never_changes_a_fuzzy_verdict() {
        let corpus = token_corpus();
        for transpositions in [false, true] {
            let triages = [0.6, 0.8, 0.9].map(|threshold| DomainTriage {
                transpositions,
                ..DomainTriage::new(threshold)
            });
            for kw in SUSPICIOUS_KEYWORDS {
                for t in &corpus {
                    let sim =
                        if transpositions { damerau_similarity(t, kw) } else { similarity(t, kw) };
                    for triage in &triages {
                        let unbounded = (sim >= triage.threshold).then_some(sim);
                        let bounded = triage.fuzzy(t, t.chars().count(), kw, kw.chars().count());
                        assert_eq!(
                            bounded, unbounded,
                            "{t} vs {kw} (threshold {}, transpositions {transpositions})",
                            triage.threshold
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn case_insensitive() {
        let t = DomainTriage::default();
        assert!(t.assess("CLAIM-Airdrop.COM").is_some());
    }
}
