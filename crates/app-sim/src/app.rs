//! The validated, immutable app specification.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use taopt_ui_model::{
    ActionId, ActivityId, Bounds, ScreenId, StochasticDigraph, UiHierarchy, Widget, WidgetClass,
};

use crate::error::AppSimError;
use crate::functionality::{Functionality, FunctionalityId};
use crate::method::MethodId;
use crate::spec::{FlowRule, LoginSpec, ScreenSpec};

/// A complete App Under Test.
///
/// `App` is an immutable specification; execution state lives in
/// [`crate::runtime::AppRuntime`]. Construct apps with
/// [`crate::builder::AppBuilder`] or [`crate::generator::generate_app`].
#[derive(Debug, Clone)]
pub struct App {
    pub(crate) name: String,
    pub(crate) screens: BTreeMap<ScreenId, ScreenSpec>,
    pub(crate) functionalities: Vec<Functionality>,
    pub(crate) start_screen: ScreenId,
    pub(crate) flows: Vec<FlowRule>,
    pub(crate) login: Option<LoginSpec>,
    pub(crate) method_count: usize,
    /// Framework methods covered by merely starting the app.
    pub(crate) startup_methods: Vec<MethodId>,
    pub(crate) action_index: HashMap<ActionId, ScreenId>,
}

impl App {
    /// Validates parts and assembles an app. Used by [`crate::AppBuilder`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        name: String,
        screens: Vec<ScreenSpec>,
        functionalities: Vec<Functionality>,
        start_screen: ScreenId,
        flows: Vec<FlowRule>,
        login: Option<LoginSpec>,
        method_count: usize,
        startup_methods: Vec<MethodId>,
    ) -> Result<Self, AppSimError> {
        if screens.is_empty() {
            return Err(AppSimError::NoScreens);
        }
        let mut map = BTreeMap::new();
        let mut action_index = HashMap::new();
        for s in screens {
            let id = s.id;
            for a in &s.actions {
                if action_index.insert(a.id, id).is_some() {
                    return Err(AppSimError::DuplicateAction(a.id));
                }
                for t in &a.targets {
                    if !t.weight.is_finite() || t.weight < 0.0 {
                        return Err(AppSimError::BadWeight(t.weight));
                    }
                }
            }
            if map.insert(id, s).is_some() {
                return Err(AppSimError::DuplicateScreen(id));
            }
        }
        if !map.contains_key(&start_screen) {
            return Err(AppSimError::BadStartScreen(start_screen));
        }
        // Check targets exist.
        for s in map.values() {
            for a in &s.actions {
                for t in &a.targets {
                    if !map.contains_key(&t.screen) {
                        return Err(AppSimError::DanglingTarget {
                            action: a.id,
                            target: t.screen,
                        });
                    }
                }
            }
        }
        if let Some(l) = &login {
            let ok = map.contains_key(&l.login_screen)
                && map.contains_key(&l.home_screen)
                && map
                    .get(&l.login_screen)
                    .map(|s| s.action(l.login_action).is_some())
                    .unwrap_or(false);
            if !ok {
                return Err(AppSimError::BadLoginSpec);
            }
        }
        Ok(App {
            name,
            screens: map,
            functionalities,
            start_screen,
            flows,
            login,
            method_count,
            startup_methods,
            action_index,
        })
    }

    /// Rebuilds the action index (needed after deserialization).
    pub fn reindex(&mut self) {
        self.action_index = self
            .screens
            .values()
            .flat_map(|s| s.actions.iter().map(move |a| (a.id, s.id)))
            .collect();
    }

    /// App name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The screen the app starts on (the login wall if gated).
    pub fn start_screen(&self) -> ScreenId {
        self.start_screen
    }

    /// All screens, ordered by id.
    pub fn screens(&self) -> impl Iterator<Item = &ScreenSpec> {
        self.screens.values()
    }

    /// Number of screens.
    pub fn screen_count(&self) -> usize {
        self.screens.len()
    }

    /// Looks up a screen.
    pub fn screen(&self, id: ScreenId) -> Option<&ScreenSpec> {
        self.screens.get(&id)
    }

    /// The screen hosting the given action.
    pub fn screen_of_action(&self, id: ActionId) -> Option<ScreenId> {
        self.action_index.get(&id).copied()
    }

    /// Declared functionalities.
    pub fn functionalities(&self) -> &[Functionality] {
        &self.functionalities
    }

    /// Flow rules.
    pub fn flows(&self) -> &[FlowRule] {
        &self.flows
    }

    /// Login gate, if the app requires authentication.
    pub fn login(&self) -> Option<&LoginSpec> {
        self.login.as_ref()
    }

    /// Total number of methods in the app (the coverage denominator).
    pub fn method_count(&self) -> usize {
        self.method_count
    }

    /// Methods covered by app startup.
    pub fn startup_methods(&self) -> &[MethodId] {
        &self.startup_methods
    }

    /// The set of distinct activities.
    pub fn activities(&self) -> BTreeSet<ActivityId> {
        self.screens.values().map(|s| s.activity).collect()
    }

    /// Screens hosted by the given activity.
    pub fn screens_of_activity(&self, a: ActivityId) -> Vec<ScreenId> {
        self.screens
            .values()
            .filter(|s| s.activity == a)
            .map(|s| s.id)
            .collect()
    }

    /// Ground-truth membership: screens per functionality.
    pub fn screens_of_functionality(&self, f: FunctionalityId) -> Vec<ScreenId> {
        self.screens
            .values()
            .filter(|s| s.functionality == f)
            .map(|s| s.id)
            .collect()
    }

    /// The ground-truth *structural* transition graph over concrete screen
    /// ids, with one unit of weight per (action, target) pair scaled by
    /// target weight. Tools induce different probabilities at run time; this
    /// graph captures app structure for analysis and tests.
    pub fn structural_graph(&self) -> StochasticDigraph {
        let mut g = StochasticDigraph::new();
        for s in self.screens.values() {
            g.add_node(s.id.0 as u64);
            for a in &s.actions {
                let total = a.total_target_weight();
                if total <= 0.0 {
                    continue;
                }
                for t in &a.targets {
                    g.add_edge(s.id.0 as u64, t.screen.0 as u64, t.weight / total)
                        .expect("validated weights");
                }
            }
        }
        g.normalized()
    }

    /// Renders the widget hierarchy of a screen (feed page 0).
    ///
    /// `visit_count` feeds the volatile text (badge counters, timestamps,
    /// product names…) so consecutive visits differ textually but abstract
    /// to the same [`taopt_ui_model::AbstractScreenId`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a screen of this app.
    pub fn render_screen(&self, id: ScreenId, visit_count: u64) -> UiHierarchy {
        self.render_screen_page(id, visit_count, 0)
    }

    /// Renders a screen at a given feed page. Pages beyond 0 append one
    /// structural row per page, so each page abstracts to a distinct
    /// screen identity (scrolling reveals genuinely new UI).
    ///
    /// The render is the page's structure followed by its visit text;
    /// [`crate::AppRuntime::observe`] caches the structure per
    /// `(screen, page)` and repeats only the text.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a screen of this app.
    pub fn render_screen_page(&self, id: ScreenId, visit_count: u64, page: usize) -> UiHierarchy {
        let mut hierarchy = self.render_structure(id, page);
        self.fill_volatile(id, visit_count, &mut hierarchy);
        hierarchy
    }

    /// The visit-independent part of a screen render: every widget with
    /// its class, resource id, bounds, affordance and static label. The
    /// volatile text slots (title, decorations, feed rows) are left
    /// empty for [`App::fill_volatile`].
    pub(crate) fn render_structure(&self, id: ScreenId, page: usize) -> UiHierarchy {
        let spec = self
            .screens
            .get(&id)
            .expect("render_screen: unknown screen");
        let mut root = Widget::container(WidgetClass::LinearLayout);
        root.resource_id = Some(Arc::from(format!("{}_root", spec.name)));
        // Title bar.
        root = root.with_child(
            Widget::leaf(WidgetClass::TextView, &format!("{}_title", spec.name))
                .with_bounds(Bounds::new(0, 0, 1080, 120)),
        );
        // Decorative widgets (images, labels).
        for d in 0..spec.decorations {
            root = root.with_child(
                Widget::leaf(WidgetClass::ImageView, &format!("{}_deco{}", spec.name, d))
                    .with_bounds(Bounds::new(
                        0,
                        120 + 80 * d as i32,
                        1080,
                        200 + 80 * d as i32,
                    )),
            );
        }
        // Feed rows revealed by pagination.
        for pg in 0..page.min(spec.feed.as_ref().map(|f| f.pages).unwrap_or(0)) {
            root = root.with_child(
                Widget::leaf(
                    WidgetClass::TextView,
                    &format!("{}_feedrow{}", spec.name, pg),
                )
                .with_bounds(Bounds::new(
                    0,
                    2000 + 60 * pg as i32,
                    1080,
                    2060 + 60 * pg as i32,
                )),
            );
        }
        // Interactive widgets.
        for (i, a) in spec.actions.iter().enumerate() {
            let class = match a.kind {
                taopt_ui_model::ActionKind::Click => WidgetClass::Button,
                taopt_ui_model::ActionKind::LongClick => WidgetClass::ImageButton,
                taopt_ui_model::ActionKind::Scroll => WidgetClass::RecyclerView,
                taopt_ui_model::ActionKind::SetText => WidgetClass::EditText,
                taopt_ui_model::ActionKind::Swipe => WidgetClass::FrameLayout,
                _ => WidgetClass::FrameLayout,
            };
            let y = 400 + 90 * i as i32;
            root = root.with_child(
                Widget::leaf(class, &a.widget_rid)
                    .with_text(&a.label)
                    .with_bounds(Bounds::new(40, y, 1040, y + 80))
                    .with_affordance(a.id, a.kind),
            );
        }
        UiHierarchy::new(root)
    }

    /// Writes the visit-dependent text (title, decorations, feed rows:
    /// badge counters, timestamps, product names…) into a structure from
    /// [`App::render_structure`] of the same screen. The text never
    /// reaches the abstraction, so every visit abstracts alike.
    pub(crate) fn fill_volatile(
        &self,
        id: ScreenId,
        visit_count: u64,
        hierarchy: &mut UiHierarchy,
    ) {
        let spec = self
            .screens
            .get(&id)
            .expect("render_screen: unknown screen");
        let (title, rest) = hierarchy
            .root_mut()
            .children
            .split_first_mut()
            .expect("a rendered screen starts with its title bar");
        title.text = Some(format!("{} · view {}", spec.name, visit_count));
        let (decorations, rest) = rest.split_at_mut(spec.decorations);
        for (d, w) in decorations.iter_mut().enumerate() {
            w.text = Some(format!(
                "promo {}",
                visit_count.wrapping_mul(31).wrapping_add(d as u64)
            ));
        }
        // Feed rows sit between the decorations and the action widgets.
        let rows = rest.len() - spec.actions.len();
        for (pg, w) in rest[..rows].iter_mut().enumerate() {
            w.text = Some(format!("feed item {pg} / view {visit_count}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AppBuilder;
    use crate::spec::ActionSpec;
    use taopt_ui_model::abstraction::abstract_hierarchy;

    fn two_screen_app() -> App {
        let mut b = AppBuilder::new("demo");
        let f = b.add_functionality("Main");
        let act = b.add_activity();
        let home = b.add_screen(act, f, "Home");
        let detail = b.add_screen(act, f, "Detail");
        b.add_click(home, detail, "open", "Open");
        b.add_click(detail, home, "close", "Close");
        b.set_start(home);
        b.build().expect("valid app")
    }

    #[test]
    fn assemble_validates_targets() {
        let mut b = AppBuilder::new("bad");
        let f = b.add_functionality("F");
        let act = b.add_activity();
        let s = b.add_screen(act, f, "S");
        // Manually create a dangling action.
        b.push_raw_action(
            s,
            ActionSpec::click_to(ActionId(999), "x", "y", ScreenId(4242)),
        );
        b.set_start(s);
        assert!(matches!(
            b.build(),
            Err(AppSimError::DanglingTarget {
                target: ScreenId(4242),
                ..
            })
        ));
    }

    #[test]
    fn render_is_structurally_stable_across_visits() {
        let app = two_screen_app();
        let home = app.start_screen();
        let h1 = app.render_screen(home, 1);
        let h2 = app.render_screen(home, 2);
        assert_ne!(h1, h2, "volatile text must differ");
        assert_eq!(
            abstract_hierarchy(&h1).id(),
            abstract_hierarchy(&h2).id(),
            "abstraction must be stable"
        );
    }

    #[test]
    fn distinct_screens_render_distinct_abstractions() {
        let app = two_screen_app();
        let ids: Vec<_> = app.screens().map(|s| s.id).collect();
        let a = abstract_hierarchy(&app.render_screen(ids[0], 0));
        let b = abstract_hierarchy(&app.render_screen(ids[1], 0));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn action_index_maps_to_hosting_screen() {
        let app = two_screen_app();
        for s in app.screens() {
            for a in &s.actions {
                assert_eq!(app.screen_of_action(a.id), Some(s.id));
            }
        }
        assert_eq!(app.screen_of_action(ActionId(12345)), None);
    }

    #[test]
    fn structural_graph_rows_are_stochastic() {
        let app = two_screen_app();
        let g = app.structural_graph();
        assert_eq!(g.node_count(), 2);
        for n in g.nodes() {
            let row: f64 = g.out_edges(n).map(|(_, w)| w).sum();
            assert!(row == 0.0 || (row - 1.0).abs() < 1e-9);
        }
    }
}
