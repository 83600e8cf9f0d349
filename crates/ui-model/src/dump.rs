//! `uiautomator dump`-style XML serialization of UI hierarchies.
//!
//! Real Toller/UiAutomator stacks exchange screens as XML dumps; this
//! module writes and parses that format so hierarchies can leave the
//! simulation (for inspection, diffing, or feeding external analyzers)
//! and re-enter it losslessly. The writer/parser pair is deliberately
//! self-contained — the dialect is small and fixed, so a dependency on an
//! XML crate would buy nothing.
//!
//! ```xml
//! <?xml version='1.0' encoding='UTF-8' standalone='yes' ?>
//! <hierarchy rotation="0">
//!   <node class="android.widget.Button" resource-id="btn_buy" text="Buy"
//!         enabled="true" clickable="true" bounds="[40,400][1040,480]"/>
//! </hierarchy>
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use crate::action::{ActionId, ActionKind};
use crate::geometry::Bounds;
use crate::hierarchy::UiHierarchy;
use crate::widget::{Widget, WidgetClass};

/// Serializes a hierarchy to a `uiautomator`-flavoured XML dump.
pub fn to_xml(hierarchy: &UiHierarchy) -> String {
    let mut out = String::from(
        "<?xml version='1.0' encoding='UTF-8' standalone='yes' ?>\n<hierarchy rotation=\"0\">\n",
    );
    write_node(hierarchy.root(), 1, &mut out);
    out.push_str("</hierarchy>\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\n', "&#10;")
}

fn unescape(s: &str) -> String {
    s.replace("&#10;", "\n")
        .replace("&quot;", "\"")
        .replace("&gt;", ">")
        .replace("&lt;", "<")
        .replace("&amp;", "&")
}

fn write_node(w: &Widget, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let _ = write!(out, "{pad}<node class=\"{}\"", w.class.android_name());
    if let Some(rid) = &w.resource_id {
        let _ = write!(out, " resource-id=\"{}\"", escape(rid));
    }
    if let Some(text) = &w.text {
        let _ = write!(out, " text=\"{}\"", escape(text));
    }
    let _ = write!(out, " enabled=\"{}\" bounds=\"{}\"", w.enabled, w.bounds);
    if let Some((id, kind)) = w.affordance {
        let _ = write!(out, " action-id=\"{}\" action-kind=\"{kind}\"", id.0);
    }
    if w.children.is_empty() {
        out.push_str("/>\n");
    } else {
        out.push_str(">\n");
        for c in &w.children {
            write_node(c, depth + 1, out);
        }
        let _ = writeln!(out, "{pad}</node>");
    }
}

/// Parses a dump produced by [`to_xml`] back into a hierarchy.
///
/// # Errors
///
/// Returns a [`ParseDumpError`] describing the first malformed line.
pub fn from_xml(xml: &str) -> Result<UiHierarchy, ParseDumpError> {
    let mut stack: Vec<Widget> = Vec::new();
    let mut root: Option<Widget> = None;
    for (lineno, raw) in xml.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty()
            || line.starts_with("<?xml")
            || line.starts_with("<hierarchy")
            || line.starts_with("</hierarchy")
        {
            continue;
        }
        if line.starts_with("</node") {
            let done = stack
                .pop()
                .ok_or(ParseDumpError::UnbalancedTags(lineno + 1))?;
            attach(&mut stack, &mut root, done, lineno)?;
            continue;
        }
        if !line.starts_with("<node") {
            return Err(ParseDumpError::UnexpectedLine(lineno + 1));
        }
        let self_closing = line.ends_with("/>");
        let widget = parse_node_line(line, lineno + 1)?;
        if self_closing {
            attach(&mut stack, &mut root, widget, lineno)?;
        } else {
            stack.push(widget);
        }
    }
    if !stack.is_empty() {
        return Err(ParseDumpError::UnbalancedTags(0));
    }
    root.map(UiHierarchy::new).ok_or(ParseDumpError::NoRoot)
}

fn attach(
    stack: &mut [Widget],
    root: &mut Option<Widget>,
    node: Widget,
    lineno: usize,
) -> Result<(), ParseDumpError> {
    if let Some(parent) = stack.last_mut() {
        parent.children.push(node);
        Ok(())
    } else if root.is_none() {
        *root = Some(node);
        Ok(())
    } else {
        Err(ParseDumpError::MultipleRoots(lineno + 1))
    }
}

fn attr<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let probe = format!("{name}=\"");
    let start = line.find(&probe)? + probe.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

fn parse_node_line(line: &str, lineno: usize) -> Result<Widget, ParseDumpError> {
    let class_name = attr(line, "class").ok_or(ParseDumpError::MissingAttr(lineno, "class"))?;
    let class = parse_class(class_name).ok_or(ParseDumpError::UnknownClass(lineno))?;
    let mut w = Widget::container(class);
    w.resource_id = attr(line, "resource-id").map(|r| Arc::from(unescape(r)));
    w.text = attr(line, "text").map(unescape);
    w.enabled = attr(line, "enabled").map(|s| s == "true").unwrap_or(true);
    if let Some(b) = attr(line, "bounds") {
        w.bounds = parse_bounds(b).ok_or(ParseDumpError::BadBounds(lineno))?;
    }
    if let (Some(id), Some(kind)) = (attr(line, "action-id"), attr(line, "action-kind")) {
        let id: u32 = id.parse().map_err(|_| ParseDumpError::BadAction(lineno))?;
        let kind = parse_kind(kind).ok_or(ParseDumpError::BadAction(lineno))?;
        w.affordance = Some((ActionId(id), kind));
    }
    Ok(w)
}

fn parse_class(name: &str) -> Option<WidgetClass> {
    [
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
    ]
    .into_iter()
    .find(|c| c.android_name() == name)
}

fn parse_kind(name: &str) -> Option<ActionKind> {
    [
        ActionKind::Click,
        ActionKind::LongClick,
        ActionKind::Scroll,
        ActionKind::SetText,
        ActionKind::Swipe,
    ]
    .into_iter()
    .find(|k| k.to_string() == name)
}

fn parse_bounds(s: &str) -> Option<Bounds> {
    // "[l,t][r,b]"
    let s = s.strip_prefix('[')?;
    let (lt, rest) = s.split_once("][")?;
    let rb = rest.strip_suffix(']')?;
    let (l, t) = lt.split_once(',')?;
    let (r, b) = rb.split_once(',')?;
    Some(Bounds::new(
        l.parse().ok()?,
        t.parse().ok()?,
        r.parse().ok()?,
        b.parse().ok()?,
    ))
}

/// Errors from parsing an XML dump.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseDumpError {
    /// A line was neither a node tag nor boilerplate.
    UnexpectedLine(usize),
    /// Open/close tags did not balance.
    UnbalancedTags(usize),
    /// A second root node appeared.
    MultipleRoots(usize),
    /// A `<node>` lacked a required attribute.
    MissingAttr(usize, &'static str),
    /// The class attribute named an unknown view class.
    UnknownClass(usize),
    /// The bounds attribute was malformed.
    BadBounds(usize),
    /// The action attributes were malformed.
    BadAction(usize),
    /// The dump contained no nodes.
    NoRoot,
}

impl std::fmt::Display for ParseDumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseDumpError::UnexpectedLine(l) => write!(f, "unexpected content at line {l}"),
            ParseDumpError::UnbalancedTags(l) => write!(f, "unbalanced tags near line {l}"),
            ParseDumpError::MultipleRoots(l) => write!(f, "second root node at line {l}"),
            ParseDumpError::MissingAttr(l, a) => write!(f, "missing attribute `{a}` at line {l}"),
            ParseDumpError::UnknownClass(l) => write!(f, "unknown view class at line {l}"),
            ParseDumpError::BadBounds(l) => write!(f, "malformed bounds at line {l}"),
            ParseDumpError::BadAction(l) => write!(f, "malformed action attributes at line {l}"),
            ParseDumpError::NoRoot => write!(f, "dump contains no nodes"),
        }
    }
}

impl std::error::Error for ParseDumpError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::abstract_hierarchy;

    fn sample() -> UiHierarchy {
        UiHierarchy::new(
            Widget::container(WidgetClass::LinearLayout)
                .with_child(
                    Widget::button("buy", "Buy \"now\" <50% off & more>")
                        .with_bounds(Bounds::new(40, 400, 1040, 480))
                        .with_affordance(ActionId(7), ActionKind::Click),
                )
                .with_child(
                    Widget::container(WidgetClass::FrameLayout)
                        .with_child(Widget::text_view("label", "hello")),
                ),
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let h = sample();
        let xml = to_xml(&h);
        let back = from_xml(&xml).expect("parse back");
        assert_eq!(back, h);
        // Abstraction identity survives the roundtrip, a fortiori.
        assert_eq!(abstract_hierarchy(&back).id(), abstract_hierarchy(&h).id());
    }

    #[test]
    fn xml_looks_like_uiautomator() {
        let xml = to_xml(&sample());
        assert!(xml.starts_with("<?xml version='1.0'"));
        assert!(xml.contains("<hierarchy rotation=\"0\">"));
        assert!(xml.contains("class=\"android.widget.Button\""));
        assert!(xml.contains("bounds=\"[40,400][1040,480]\""));
        assert!(xml.contains("&quot;now&quot;"));
        assert!(xml.contains("&lt;50% off &amp; more&gt;"));
    }

    #[test]
    fn disabled_state_roundtrips() {
        let mut h = sample();
        h.disable_actions(&[ActionId(7)]);
        let back = from_xml(&to_xml(&h)).unwrap();
        assert!(!back.offers(crate::action::Action::Widget(ActionId(7))));
    }

    #[test]
    fn malformed_dumps_error_cleanly() {
        assert_eq!(from_xml(""), Err(ParseDumpError::NoRoot));
        assert!(matches!(
            from_xml("<node class=\"nope\"/>"),
            Err(ParseDumpError::UnknownClass(_))
        ));
        assert!(matches!(
            from_xml("garbage"),
            Err(ParseDumpError::UnexpectedLine(_))
        ));
        assert!(matches!(
            from_xml("<node class=\"android.widget.Button\">"),
            Err(ParseDumpError::UnbalancedTags(_))
        ));
        let two_roots =
            "<node class=\"android.widget.Button\"/>\n<node class=\"android.widget.Button\"/>";
        assert!(matches!(
            from_xml(two_roots),
            Err(ParseDumpError::MultipleRoots(_))
        ));
    }

    #[test]
    fn newlines_in_text_roundtrip() {
        let h = UiHierarchy::new(Widget::text_view("multi", "line one\nline two"));
        let back = from_xml(&to_xml(&h)).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn generated_screens_roundtrip() {
        // Smoke over a richer structure from the simulator would require
        // the app-sim crate (circular); instead build a deep synthetic
        // tree here.
        let mut w = Widget::container(WidgetClass::FrameLayout);
        for i in 0..20 {
            w = Widget::container(WidgetClass::LinearLayout)
                .with_child(w)
                .with_child(Widget::text_view(&format!("lvl{i}"), &format!("depth {i}")));
        }
        let h = UiHierarchy::new(w);
        let back = from_xml(&to_xml(&h)).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.node_count(), h.node_count());
    }
}
