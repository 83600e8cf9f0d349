//! Widgets — nodes of a UI hierarchy.

use std::fmt;
use std::sync::Arc;

use crate::action::{ActionId, ActionKind};
use crate::geometry::Bounds;

/// The view class of a widget, mirroring common Android view classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum WidgetClass {
    /// A vertical/horizontal container.
    LinearLayout,
    /// A constraint-based container.
    FrameLayout,
    /// A scrolling list.
    RecyclerView,
    /// A push button.
    Button,
    /// An image button (e.g. a tab icon).
    ImageButton,
    /// A static text label.
    TextView,
    /// An editable text field.
    EditText,
    /// A static image.
    ImageView,
    /// A check box.
    CheckBox,
    /// A tab host / bottom navigation bar.
    TabHost,
    /// An embedded web view.
    WebView,
    /// A toggle switch.
    Switch,
}

impl WidgetClass {
    /// The fully qualified Android class name this models.
    pub fn android_name(&self) -> &'static str {
        match self {
            WidgetClass::LinearLayout => "android.widget.LinearLayout",
            WidgetClass::FrameLayout => "android.widget.FrameLayout",
            WidgetClass::RecyclerView => "androidx.recyclerview.widget.RecyclerView",
            WidgetClass::Button => "android.widget.Button",
            WidgetClass::ImageButton => "android.widget.ImageButton",
            WidgetClass::TextView => "android.widget.TextView",
            WidgetClass::EditText => "android.widget.EditText",
            WidgetClass::ImageView => "android.widget.ImageView",
            WidgetClass::CheckBox => "android.widget.CheckBox",
            WidgetClass::TabHost => "android.widget.TabHost",
            WidgetClass::WebView => "android.webkit.WebView",
            WidgetClass::Switch => "android.widget.Switch",
        }
    }
}

impl fmt::Display for WidgetClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.android_name())
    }
}

/// One node of a UI hierarchy.
///
/// A widget may carry an *affordance*: an [`ActionId`] plus [`ActionKind`]
/// describing what a testing tool can do with it. Enforcement (the Toller
/// shim) disables widgets by clearing [`Widget::enabled`]; disabled widgets
/// are invisible to tools' action enumeration, which is exactly how TaOPT
/// blocks subspace entrypoints without modifying the tool.
#[derive(Debug, Clone, PartialEq)]
pub struct Widget {
    /// View class.
    pub class: WidgetClass,
    /// Android resource id (stable across visits), if any. Shared, not
    /// owned: a screen's widget tree is cloned from a cached structure on
    /// every observation, and the id rides along by refcount.
    pub resource_id: Option<Arc<str>>,
    /// Visible text (volatile; removed by abstraction).
    pub text: Option<String>,
    /// Whether the widget is currently enabled.
    pub enabled: bool,
    /// The affordance this widget exposes, if interactive.
    pub affordance: Option<(ActionId, ActionKind)>,
    /// On-screen bounds.
    pub bounds: Bounds,
    /// Child widgets.
    pub children: Vec<Widget>,
}

impl Widget {
    /// Creates a non-interactive container of the given class.
    pub fn container(class: WidgetClass) -> Self {
        Widget {
            class,
            resource_id: None,
            text: None,
            enabled: true,
            affordance: None,
            bounds: Bounds::default(),
            children: Vec::new(),
        }
    }

    /// Creates a leaf widget of the given class with a resource id.
    pub fn leaf(class: WidgetClass, resource_id: &str) -> Self {
        Widget {
            resource_id: Some(Arc::from(resource_id)),
            ..Widget::container(class)
        }
    }

    /// Creates a clickable button with text. The affordance id must be
    /// attached afterwards with [`Widget::with_affordance`] to make it
    /// actionable in the simulation.
    pub fn button(resource_id: &str, text: &str) -> Self {
        Widget {
            text: Some(text.to_owned()),
            ..Widget::leaf(WidgetClass::Button, resource_id)
        }
    }

    /// Creates a static text label.
    pub fn text_view(resource_id: &str, text: &str) -> Self {
        Widget {
            text: Some(text.to_owned()),
            ..Widget::leaf(WidgetClass::TextView, resource_id)
        }
    }

    /// Attaches an affordance, making the widget interactive.
    pub fn with_affordance(mut self, id: ActionId, kind: ActionKind) -> Self {
        self.affordance = Some((id, kind));
        self
    }

    /// Sets the visible text.
    pub fn with_text(mut self, text: &str) -> Self {
        self.text = Some(text.to_owned());
        self
    }

    /// Sets the bounds.
    pub fn with_bounds(mut self, bounds: Bounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Appends a child and returns `self` (builder style).
    pub fn with_child(mut self, child: Widget) -> Self {
        self.children.push(child);
        self
    }

    /// Number of nodes in the subtree rooted here (including `self`).
    pub fn subtree_size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(Widget::subtree_size)
            .sum::<usize>()
    }

    /// Depth-first pre-order visit of the subtree.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Widget)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }

    /// Depth-first pre-order mutable visit of the subtree.
    pub fn visit_mut(&mut self, f: &mut impl FnMut(&mut Widget)) {
        f(self);
        for c in &mut self.children {
            c.visit_mut(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Widget {
        Widget::container(WidgetClass::LinearLayout)
            .with_child(Widget::button("go", "Go").with_affordance(ActionId(1), ActionKind::Click))
            .with_child(
                Widget::container(WidgetClass::FrameLayout)
                    .with_child(Widget::text_view("label", "hello")),
            )
    }

    #[test]
    fn subtree_size_counts_all_nodes() {
        assert_eq!(sample().subtree_size(), 4);
    }

    #[test]
    fn visit_is_preorder() {
        let w = sample();
        let mut classes = Vec::new();
        w.visit(&mut |n| classes.push(n.class));
        assert_eq!(
            classes,
            vec![
                WidgetClass::LinearLayout,
                WidgetClass::Button,
                WidgetClass::FrameLayout,
                WidgetClass::TextView,
            ]
        );
    }

    #[test]
    fn visit_mut_can_disable_everything() {
        let mut w = sample();
        w.visit_mut(&mut |n| n.enabled = false);
        let mut all_disabled = true;
        w.visit(&mut |n| all_disabled &= !n.enabled);
        assert!(all_disabled);
    }

    #[test]
    fn builders_set_fields() {
        let w = Widget::button("x", "y")
            .with_bounds(Bounds::new(0, 0, 10, 10))
            .with_affordance(ActionId(9), ActionKind::LongClick);
        assert_eq!(w.resource_id.as_deref(), Some("x"));
        assert_eq!(w.text.as_deref(), Some("y"));
        assert_eq!(w.affordance, Some((ActionId(9), ActionKind::LongClick)));
        assert_eq!(w.bounds.width(), 10);
    }

    #[test]
    fn android_names_are_qualified() {
        let mut seen = std::collections::HashSet::new();
        for c in [
            WidgetClass::LinearLayout,
            WidgetClass::FrameLayout,
            WidgetClass::RecyclerView,
            WidgetClass::Button,
            WidgetClass::ImageButton,
            WidgetClass::TextView,
            WidgetClass::EditText,
            WidgetClass::ImageView,
            WidgetClass::CheckBox,
            WidgetClass::TabHost,
            WidgetClass::WebView,
            WidgetClass::Switch,
        ] {
            let name = c.android_name();
            assert!(name.contains('.'), "{name} should be fully qualified");
            assert!(seen.insert(name), "{name} duplicated");
        }
    }
}
