//! The observation path renders a screen's structure once per
//! `(screen, feed page)` and rewrites only the visit-dependent text on
//! later observations. These tests pin it to the one renderer,
//! [`App::render_screen_page`]: every observation a runtime hands out must
//! equal a fresh render at the runtime's visit count and feed page, and
//! one fixed render is checked in byte-for-byte as a `uiautomator` dump.
//!
//! To regenerate the dump fixture after an intentional rendering change:
//!
//! ```text
//! TAOPT_GOLDEN_REGEN=1 cargo test -p taopt-app-sim --test render_cache
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use taopt_app_sim::{generate_app, App, AppRuntime, GeneratorConfig};
use taopt_ui_model::{to_xml, Action, ActionKind, ScreenId, ScreenObservation, VirtualTime};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/feed_screen_visit7_page2.xml"
);

/// A small generated app in which about half the cluster screens carry a
/// paginated feed.
fn feed_app(seed: u64) -> Arc<App> {
    let mut cfg = GeneratorConfig::small("render", seed);
    cfg.feed_fraction = 0.5;
    Arc::new(generate_app(&cfg).expect("valid generated app"))
}

/// A runtime plus the visit counts it must have reached: every arrival
/// (launch, jump, any executed action) counts one visit to the screen the
/// runtime ends up on.
struct Driven {
    app: Arc<App>,
    rt: AppRuntime,
    visits: HashMap<ScreenId, u64>,
    checked: usize,
}

impl Driven {
    fn launch(app: Arc<App>, seed: u64) -> Self {
        let rt = AppRuntime::launch(Arc::clone(&app), seed);
        let visits = HashMap::from([(rt.current_screen(), 1)]);
        Driven {
            app,
            rt,
            visits,
            checked: 0,
        }
    }

    fn arrived(&mut self) {
        *self.visits.entry(self.rt.current_screen()).or_insert(0) += 1;
    }

    /// Asserts `obs` is what the renderer draws for the runtime's state.
    fn assert_rendered(&mut self, obs: &ScreenObservation) {
        let screen = self.rt.current_screen();
        let page = self.rt.feed_page(screen);
        let visits = self.visits[&screen];
        assert_eq!(obs.screen, screen);
        assert_eq!(
            obs.hierarchy,
            self.app.render_screen_page(screen, visits, page),
            "{screen} visit {visits} page {page}"
        );
        self.checked += 1;
    }

    /// Observes three times: the first observation of a page renders it,
    /// the second caches its structure, the third clones the cache.
    fn check_observations(&mut self) {
        for _ in 0..3 {
            let obs = self.rt.observe(VirtualTime::ZERO);
            self.assert_rendered(&obs);
        }
    }

    fn jump(&mut self, screen: ScreenId) {
        self.rt.jump_to(screen);
        self.arrived();
        self.check_observations();
    }

    /// Fires the current screen's scroll action, if it has one.
    fn scroll(&mut self) -> bool {
        let obs = self.rt.observe(VirtualTime::ZERO);
        let Some((id, _)) = obs
            .enabled_actions()
            .into_iter()
            .find(|(_, kind)| *kind == ActionKind::Scroll)
        else {
            return false;
        };
        let out = self
            .rt
            .execute(Action::Widget(id), VirtualTime::ZERO)
            .expect("offered action");
        self.arrived();
        self.assert_rendered(&out.observation);
        self.check_observations();
        true
    }
}

#[test]
fn observations_equal_fresh_renders_on_every_screen_page_and_visit() {
    let mut feed_pages_checked = 0;
    for seed in 0..3 {
        let app = feed_app(seed);
        assert!(app.screens().any(|s| s.feed.is_some()), "seed {seed}");
        // Each round uses a fresh runtime and visits every screen one more
        // time before scrolling, so each page is seen at several visit
        // counts.
        for round in 0..3u64 {
            let mut d = Driven::launch(Arc::clone(&app), seed * 10 + round);
            d.check_observations();
            let screens: Vec<_> = app.screens().map(|s| (s.id, s.feed.clone())).collect();
            for (screen, feed) in screens {
                for _ in 0..=round {
                    d.jump(screen);
                }
                let Some(feed) = feed else { continue };
                // One scroll past the last page checks the capped page.
                for _ in 0..=feed.pages {
                    if d.rt.current_screen() != screen || !d.scroll() {
                        break;
                    }
                    feed_pages_checked += 1;
                }
            }
            assert!(d.checked > app.screen_count() * 3, "seed {seed}");
        }
    }
    assert!(feed_pages_checked > 0, "no feed page was ever scrolled to");
}

#[test]
fn a_fixed_feed_screen_renders_the_checked_in_dump() {
    let app = feed_app(1);
    let screen = app
        .screens()
        .find(|s| s.feed.as_ref().is_some_and(|f| f.pages >= 2))
        .expect("a feed screen with two pages")
        .id;
    let current = to_xml(&app.render_screen_page(screen, 7, 2));
    if std::env::var("TAOPT_GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &current).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
        panic!("missing fixture {FIXTURE} ({e}); run with TAOPT_GOLDEN_REGEN=1 to create it")
    });
    assert_eq!(current, golden, "screen dump diverged from {FIXTURE}");
}
