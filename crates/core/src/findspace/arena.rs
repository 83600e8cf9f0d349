//! Per-app screen arena: interning shared across engine resets and
//! instances.
//!
//! Every [`FindSpaceEngine`](super::FindSpaceEngine) reset used to drop
//! and rebuild its abstract-id → dense-id interning table, re-hashing
//! (and re-allocating) the same few dozen screens after every accepted
//! split. The arena interns each distinct abstract screen **once per
//! app**: engines resolve events to stable `u32` arena ids through a
//! shared, append-only table and keep only a reusable sentinel vector of
//! their own. A reset clears the sentinel entries the engine actually
//! used — `O(D_local)`, no allocation, no re-hashing of survivors on the
//! next window.
//!
//! Arena ids depend on the order in which engines first meet a screen,
//! so they never leak into analysis results: the engine's *dense local
//! ids* are per-window first-appearance order, similarity-cache keys are
//! the abstract ids themselves, and scores are functions of local
//! structure only.

use std::collections::HashMap;
use std::sync::RwLock;

use taopt_ui_model::TraceEvent;

use super::SCREEN_CAPACITY_HINT;

#[derive(Debug, Default)]
struct ArenaInner {
    /// Abstract-screen id → arena id, append-only.
    index: HashMap<u64, u32>,
    /// One representative event per arena id (cheap: `Arc` fields).
    reps: Vec<TraceEvent>,
}

/// Append-only interner of one app's distinct abstract screens.
///
/// Shared via `Arc` by every engine analyzing the app; read-mostly (a
/// write happens once per *new* distinct screen per app lifetime).
#[derive(Debug)]
pub struct ScreenArena {
    inner: RwLock<ArenaInner>,
}

impl Default for ScreenArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ScreenArena {
    /// Creates an empty arena pre-sized for a typical app's
    /// distinct-screen population.
    pub fn new() -> Self {
        ScreenArena {
            inner: RwLock::new(ArenaInner {
                index: HashMap::with_capacity(SCREEN_CAPACITY_HINT),
                reps: Vec::with_capacity(SCREEN_CAPACITY_HINT),
            }),
        }
    }

    /// Distinct screens interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().expect("screen arena poisoned").reps.len()
    }

    /// Whether no screen has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns the event's abstract screen (first caller wins the slot)
    /// and returns its arena id.
    pub fn resolve(&self, event: &TraceEvent) -> u32 {
        let key = event.abstract_id.0;
        if let Some(&id) = self
            .inner
            .read()
            .expect("screen arena poisoned")
            .index
            .get(&key)
        {
            return id;
        }
        let mut inner = self.inner.write().expect("screen arena poisoned");
        // Double-checked: another caller may have interned it meanwhile.
        if let Some(&id) = inner.index.get(&key) {
            return id;
        }
        let id = inner.reps.len() as u32;
        inner.index.insert(key, id);
        inner.reps.push(event.clone());
        id
    }

    /// The representative event of an arena id (clone is `Arc`-cheap).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`resolve`](Self::resolve) on
    /// this arena.
    pub fn rep(&self, id: u32) -> TraceEvent {
        self.inner.read().expect("screen arena poisoned").reps[id as usize].clone()
    }

    /// A snapshot of every interned representative event, sorted by
    /// abstract id so the snapshot is independent of interning order
    /// (arena ids themselves never leak into results). Used to capture
    /// warm-start bundles; re-interning the snapshot into a fresh arena
    /// pre-seeds it without affecting any analysis outcome.
    pub fn reps_snapshot(&self) -> Vec<TraceEvent> {
        let mut reps = self
            .inner
            .read()
            .expect("screen arena poisoned")
            .reps
            .clone();
        reps.sort_by_key(|e| e.abstract_id.0);
        reps
    }

    /// The abstract-screen id behind an arena id.
    pub fn abstract_id(&self, id: u32) -> u64 {
        self.inner.read().expect("screen arena poisoned").reps[id as usize]
            .abstract_id
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::ev;
    use super::*;

    #[test]
    fn resolve_is_stable_and_dedups() {
        let arena = ScreenArena::new();
        let a = ev(0, "A");
        let b = ev(2, "B");
        let ia = arena.resolve(&a);
        let ib = arena.resolve(&b);
        assert_ne!(ia, ib);
        assert_eq!(arena.resolve(&ev(10, "A")), ia, "same screen, same id");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.abstract_id(ia), a.abstract_id.0);
        assert_eq!(arena.rep(ib).abstract_id, b.abstract_id);
    }

    #[test]
    fn concurrent_resolve_agrees() {
        let arena = std::sync::Arc::new(ScreenArena::new());
        let events: Vec<_> = (0..32).map(|i| ev(i, &format!("S{}", i % 8))).collect();
        let ids: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let arena = arena.clone();
                    let events = &events;
                    s.spawn(move || events.iter().map(|e| arena.resolve(e)).collect())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(arena.len(), 8);
        // Whatever slots the race assigned, every thread sees the same
        // mapping afterwards.
        for other in &ids[1..] {
            assert_eq!(&ids[0], other);
        }
    }
}
