//! Tree similarity between abstracted UI hierarchies.
//!
//! Algorithm 1's `CountIn(s, S[p:N])` "calculates the tree similarity of the
//! two abstracted UI hierarchies to determine the times of the appearances
//! of `s`" (§5.2, citing the VET tree-similarity measure). We implement the
//! standard multiset Dice coefficient over `(depth, class, resource-id)`
//! node signatures: cheap, symmetric, bounded in `[0, 1]`, and `1` exactly
//! for structurally identical screens.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::abstraction::AbstractHierarchy;
use crate::trace::TraceEvent;

/// Default similarity above which two abstract screens count as "the same
/// screen" in trace analysis.
pub const DEFAULT_SIMILARITY_THRESHOLD: f64 = 0.9;

/// A persistent, thread-safe cache of pairwise screen-similarity
/// decisions, keyed by abstract-screen-id pairs.
///
/// One cache serves one app's analyzer: it re-runs `FindSpace` every
/// few seconds per instance and the distinct-screen population is
/// shared, so cached decisions eliminate the dominant `O(D²)`
/// tree-similarity cost of repeated analyses.
///
/// The map sits behind one `RwLock` so the API takes `&self`. A
/// decision is a pure function of the pair — both hierarchies are
/// immutable once interned — so the cache's contents never depend on
/// the order in which pairs are asked.
#[derive(Debug, Default)]
pub struct SimilarityCache {
    map: RwLock<HashMap<(u64, u64), bool>>,
    /// Tree-similarity evaluations performed (cache misses).
    computations: AtomicU64,
    /// Lookups answered from the cache.
    hits: AtomicU64,
}

impl SimilarityCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<(u64, u64), bool>> {
        self.map.read().expect("similarity cache poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<(u64, u64), bool>> {
        self.map.write().expect("similarity cache poisoned")
    }

    /// Number of cached pair decisions.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Tree-similarity evaluations performed so far (cache misses).
    pub fn computations(&self) -> u64 {
        self.computations.load(Ordering::Relaxed)
    }

    /// Lookups answered without recomputing.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Whether two events' screens count as "the same screen" at
    /// `threshold`, computing and caching the decision on first ask.
    pub fn similar(&self, a: &TraceEvent, b: &TraceEvent, threshold: f64) -> bool {
        if a.abstract_id == b.abstract_id {
            return true;
        }
        let key = if a.abstract_id.0 <= b.abstract_id.0 {
            (a.abstract_id.0, b.abstract_id.0)
        } else {
            (b.abstract_id.0, a.abstract_id.0)
        };
        if let Some(&d) = self.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return d;
        }
        let decision = tree_similarity(&a.abstraction, &b.abstraction) >= threshold;
        self.computations.fetch_add(1, Ordering::Relaxed);
        self.write().insert(key, decision);
        decision
    }

    /// Removes every cached pair touching any screen in `screens`
    /// (abstract ids); returns how many entries were evicted. Scoped
    /// eviction for `forget_instance`: decisions involving screens no
    /// surviving instance has seen are dead weight.
    pub fn evict_screens(&self, screens: &BTreeSet<u64>) -> usize {
        if screens.is_empty() {
            return 0;
        }
        let mut map = self.write();
        let before = map.len();
        map.retain(|k, _| !screens.contains(&k.0) && !screens.contains(&k.1));
        before - map.len()
    }

    /// Seeds the cache with precomputed pair decisions (e.g. a warm-start
    /// bundle from a previous campaign), skipping pairs already present;
    /// returns how many entries were actually inserted.
    ///
    /// Seeding is a pure accelerator: a decision is a pure function of the
    /// pair, so a pre-seeded entry only skips the compute that would have
    /// produced the identical value.
    pub fn seed<'a>(&self, entries: impl IntoIterator<Item = &'a ((u64, u64), bool)>) -> usize {
        let mut map = self.write();
        let mut inserted = 0;
        for ((a, b), decision) in entries {
            let key = if a <= b { (*a, *b) } else { (*b, *a) };
            if map.insert(key, *decision).is_none() {
                inserted += 1;
            }
        }
        inserted
    }

    /// Deterministic snapshot of every cached decision in ascending key
    /// order.
    pub fn snapshot(&self) -> BTreeMap<(u64, u64), bool> {
        self.read().iter().map(|(k, v)| (*k, *v)).collect()
    }
}

/// Computes the tree similarity of two abstracted hierarchies in `[0, 1]`.
///
/// The measure is the Dice coefficient `2·|A ∩ B| / (|A| + |B|)` of the
/// multisets of node signatures. It is symmetric, reflexive (identical
/// trees score 1.0), and 0.0 for trees sharing no node signature.
///
/// # Examples
///
/// ```
/// use taopt_ui_model::{UiHierarchy, Widget, WidgetClass};
/// use taopt_ui_model::abstraction::abstract_hierarchy;
/// use taopt_ui_model::similarity::tree_similarity;
///
/// let a = abstract_hierarchy(&UiHierarchy::new(Widget::container(WidgetClass::LinearLayout)));
/// assert_eq!(tree_similarity(&a, &a), 1.0);
/// ```
pub fn tree_similarity(a: &AbstractHierarchy, b: &AbstractHierarchy) -> f64 {
    // Fast path: identical abstractions.
    if a.id() == b.id() {
        return 1.0;
    }
    let (sa, sb) = (a.signatures(), b.signatures());
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    // Sorted-multiset intersection size.
    let mut i = 0;
    let mut j = 0;
    let mut common = 0usize;
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    2.0 * common as f64 / (sa.len() + sb.len()) as f64
}

/// The paper's `CountIn(s, window)`: how many screens in `window` are
/// tree-similar to `s` at or above `threshold`.
pub fn count_in(
    s: &AbstractHierarchy,
    window: impl IntoIterator<Item = impl AsRef<AbstractHierarchy>>,
    threshold: f64,
) -> usize {
    window
        .into_iter()
        .filter(|x| tree_similarity(s, x.as_ref()) >= threshold)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::abstract_hierarchy;
    use crate::hierarchy::UiHierarchy;
    use crate::widget::{Widget, WidgetClass};

    fn screen(rows: usize, rid: &str) -> AbstractHierarchy {
        let mut root = Widget::container(WidgetClass::LinearLayout);
        for i in 0..rows {
            root = root.with_child(Widget::text_view(&format!("{rid}_{i}"), "txt"));
        }
        abstract_hierarchy(&UiHierarchy::new(root))
    }

    #[test]
    fn identical_trees_score_one() {
        let a = screen(4, "row");
        let b = screen(4, "row");
        assert_eq!(tree_similarity(&a, &b), 1.0);
    }

    #[test]
    fn disjoint_resource_ids_score_low() {
        let a = screen(4, "shop");
        let b = screen(4, "acct");
        // Roots share a signature; rows do not.
        let s = tree_similarity(&a, &b);
        assert!(s < 0.5, "similarity {s} should be low");
        assert!(s > 0.0, "roots still match");
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let a = screen(3, "x");
        let b = screen(7, "x");
        let ab = tree_similarity(&a, &b);
        let ba = tree_similarity(&b, &a);
        assert_eq!(ab, ba);
        assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn near_duplicate_screens_score_high() {
        // Same rows, one extra banner: e.g. a list screen after scrolling.
        let a = screen(10, "item");
        let b = {
            let mut root = Widget::container(WidgetClass::LinearLayout);
            for i in 0..10 {
                root = root.with_child(Widget::text_view(&format!("item_{i}"), "other"));
            }
            root = root.with_child(Widget::leaf(WidgetClass::ImageView, "ad"));
            abstract_hierarchy(&UiHierarchy::new(root))
        };
        assert!(tree_similarity(&a, &b) > 0.9);
    }

    #[test]
    fn count_in_respects_threshold() {
        let probe = screen(4, "shop");
        let window = [
            std::sync::Arc::new(screen(4, "shop")),
            std::sync::Arc::new(screen(4, "acct")),
            std::sync::Arc::new(screen(4, "shop")),
        ];
        assert_eq!(count_in(&probe, window.iter().cloned(), 0.9), 2);
        assert_eq!(count_in(&probe, window.iter().cloned(), 0.01), 3);
    }
}
