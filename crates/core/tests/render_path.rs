//! Differential test of the render path: every canvas kind a session
//! renders — a relation, a composite with a slaved magnifier, a composite
//! with an alternative-display magnifier (Figure 9), a stitched group, a
//! replicated group, and the rear view after a wormhole pass-through —
//! must produce byte-identical pixels and hit records with tracing off
//! and on, and must match an oracle assembled by hand from
//! `compose_scene` + `render_scene` + `blit`.

use std::sync::Arc;
use tioga2_core::{Environment, Session};
use tioga2_dataflow::boxes::RelOpKind;
use tioga2_dataflow::{BoxKind, PortType};
use tioga2_datagen::register_standard_catalog;
use tioga2_display::attr_ops::{set_active_display, AttrRole};
use tioga2_display::compose::PartitionSpec;
use tioga2_display::{Composite, Displayable, Layout, Selection};
use tioga2_expr::{parse, Color, ScalarType as T};
use tioga2_obs::{CompletedSpan, InMemoryRecorder, Recorder as _};
use tioga2_relational::Catalog;
use tioga2_render::{font, render_scene, Framebuffer, HitRecord, Scene, Viewport};
use tioga2_viewer::group::member_viewer_name;
use tioga2_viewer::magnifier::Magnifier;
use tioga2_viewer::{compose_scene, CullOptions, Slider};

/// What one canvas render produced, in comparable form.
#[derive(Debug, PartialEq)]
struct Out {
    fb: Framebuffer,
    hits: Vec<HitRecord>,
    member_hits: Vec<Vec<HitRecord>>,
}

fn session(rec: Option<Arc<InMemoryRecorder>>) -> Session {
    let catalog = Catalog::new();
    register_standard_catalog(&catalog, 60, 6, 11);
    let mut s = Session::new(Environment::new(catalog));
    s.set_canvas_size(240, 180);
    if let Some(rec) = rec {
        s.set_recorder(rec);
    }
    s
}

fn render(s: &mut Session, canvas: &str) -> Out {
    let f = s.render(canvas).unwrap();
    Out {
        fb: f.fb,
        hits: f.hits.records().to_vec(),
        member_hits: f.member_hits.iter().map(|h| h.records().to_vec()).collect(),
    }
}

// ------------------------------------------------------------ the oracle

/// Compose + draw one view into a fresh framebuffer of the viewport's size.
fn draw(
    c: &Composite,
    vp: &Viewport,
    elevation: f64,
    sliders: &[Slider],
    cull: CullOptions,
) -> (Framebuffer, Vec<HitRecord>, Scene) {
    let scene = compose_scene(c, elevation, sliders, vp.world_bounds(), cull).unwrap();
    let mut fb = Framebuffer::new(vp.width_px, vp.height_px);
    let hits = render_scene(&scene, vp, &mut fb);
    (fb, hits.records().to_vec(), scene)
}

/// A relation or composite canvas with its magnifiers.
fn oracle_canvas(s: &mut Session, canvas: &str, lenses: &[Magnifier]) -> Out {
    let c = s.displayable(canvas).unwrap().into_composite().unwrap();
    let v = s.viewers.get(canvas).unwrap().clone();
    let (mut fb, hits, _) =
        draw(&c, &v.viewport(), v.position.elevation, &v.position.sliders, v.cull);
    for m in lenses {
        let inner = match &m.display_attr {
            None => c.clone(),
            Some(attr) => Composite::new(
                c.layers
                    .iter()
                    .map(|l| {
                        if l.display_attrs().iter().any(|a| a == attr) {
                            set_active_display(l, attr).unwrap()
                        } else {
                            l.clone()
                        }
                    })
                    .collect(),
            )
            .unwrap(),
        };
        let ivp = m.inner_viewport(&v);
        let (sub, _, _) =
            draw(&inner, &ivp, ivp.elevation, &v.position.sliders, CullOptions::default());
        let (x, y, w, h) = m.rect_px;
        fb.blit(&sub, x, y);
        fb.draw_rect(x, y, x + w as i32 - 1, y + h as i32 - 1, 2, Color::GRAY);
    }
    Out { fb, hits, member_hits: Vec::new() }
}

/// A group canvas: each member drawn into its cell under its caption.
fn oracle_group(s: &mut Session, canvas: &str) -> Out {
    let Displayable::G(group) = s.displayable(canvas).unwrap() else { panic!("not a group") };
    let gw = s.group_window_mut(canvas).unwrap();
    let mut fb = Framebuffer::new(gw.size.0, gw.size.1);
    let mut member_hits = Vec::new();
    for (i, member) in group.members.iter().enumerate() {
        let v = gw.viewers.get(&member_viewer_name(i)).unwrap();
        let (x, y, w, h) = gw.member_rect(i);
        let caption = (h - v.size.1) as i32;
        let (sub, hits, _) =
            draw(member, &v.viewport(), v.position.elevation, &v.position.sliders, v.cull);
        fb.blit(&sub, x, y + caption);
        fb.draw_rect(x - 1, y + caption - 1, x + w as i32, y + h as i32, 1, Color::GRAY);
        font::draw_text(&mut fb, x, y, &group.labels[i], Color::BLACK, 1);
        member_hits.push(hits);
    }
    Out { fb, hits: Vec::new(), member_hits }
}

// ------------------------------------------------------------- the cases

/// Stations restricted to one state: a plain relation canvas.
fn relation_canvas(s: &mut Session) -> &'static str {
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "altitude > 50").unwrap();
    s.add_viewer(r, "rel").unwrap();
    s.render("rel").unwrap();
    s.pan("rel", 7, -5).unwrap();
    "rel"
}

/// A two-layer station map (circles under names): a composite canvas.
fn composite_canvas(s: &mut Session, name: &str) {
    let t = s.add_table("Stations").unwrap();
    let x = s.set_attribute(t, "x", T::Float, "longitude").unwrap();
    let y = s.set_attribute(x, "y", T::Float, "latitude").unwrap();
    let tee = s.add_tee(y, 0).unwrap();
    let circles = s.set_attribute(tee, "display", T::DrawList, "circle(0.3,'red')").unwrap();
    let alt = s
        .add_attribute(circles, "alt_view", T::Drawable, "rect(0.4,0.4,'blue')", AttrRole::Display)
        .unwrap();
    let names0 = s
        .add_box(BoxKind::RelOp {
            op: RelOpKind::SetAttribute {
                name: "display".into(),
                ty: T::DrawList,
                def: parse("text(name,'black')").unwrap(),
            },
            shape: PortType::R,
            sel: Selection::default(),
        })
        .unwrap();
    s.connect(tee, 1, names0, 0).unwrap();
    let map = s.overlay(alt, names0, vec![], true).unwrap();
    s.add_viewer(map, name).unwrap();
    s.render(name).unwrap();
    s.zoom(name, 0.7).unwrap();
    s.pan(name, -12, 9).unwrap();
}

fn slaved_magnifier(s: &mut Session) -> Magnifier {
    composite_canvas(s, "lens");
    let m = Magnifier::new((60, 40, 90, 70), 2.5).unwrap();
    s.add_magnifier("lens", m.clone()).unwrap();
    m
}

fn alternative_display_magnifier(s: &mut Session) -> Magnifier {
    composite_canvas(s, "fig9");
    let m = Magnifier::new((100, 70, 110, 80), 1.5).unwrap().with_display("alt_view");
    s.add_magnifier("fig9", m.clone()).unwrap();
    m
}

/// Figure 10: temperature and precipitation members stitched vertically.
fn stitched_group(s: &mut Session) -> &'static str {
    let obs = s.add_table("Observations").unwrap();
    let x = s.set_attribute(obs, "x", T::Float, "to_float(epoch(time)) / 86400.0").unwrap();
    let tee = s.add_tee(x, 0).unwrap();
    let temp = s.set_attribute(tee, "y", T::Float, "temperature").unwrap();
    let precip0 = s
        .add_box(BoxKind::RelOp {
            op: RelOpKind::SetAttribute {
                name: "y".into(),
                ty: T::Float,
                def: parse("precipitation").unwrap(),
            },
            shape: PortType::R,
            sel: Selection::default(),
        })
        .unwrap();
    s.connect(tee, 1, precip0, 0).unwrap();
    let st = s.stitch(&[temp, precip0], Layout::Vertical).unwrap();
    s.add_viewer(st, "stitched").unwrap();
    s.render("stitched").unwrap();
    let gw = s.group_window_mut("stitched").unwrap();
    gw.slave_members(0, 1).unwrap();
    gw.pan_member(0, 15, 0).unwrap();
    gw.zoom_member(0, 0.8).unwrap();
    "stitched"
}

/// Figure 11: one pipeline replicated before/after 1990.
fn replicated_group(s: &mut Session) -> &'static str {
    let obs = s.add_table("Observations").unwrap();
    let x = s.set_attribute(obs, "x", T::Float, "to_float(epoch(time)) / 86400.0").unwrap();
    let y = s.set_attribute(x, "y", T::Float, "temperature").unwrap();
    let g = s
        .replicate(
            y,
            PartitionSpec::Predicates(vec![
                ("year < 1990".into(), parse("year(time) < 1990").unwrap()),
                ("year >= 1990".into(), parse("year(time) >= 1990").unwrap()),
            ]),
            None,
            Selection::default(),
        )
        .unwrap();
    s.add_viewer(g, "replicated").unwrap();
    s.render("replicated").unwrap();
    s.group_window_mut("replicated").unwrap().pan_member(1, -10, 4).unwrap();
    "replicated"
}

/// Figure 8: a station with a wormhole to a temperature canvas and an
/// underside marker; zoom down through the wormhole, then descend.
fn rear_view(s: &mut Session) {
    let obs = s.add_table("Observations").unwrap();
    let ox = s.set_attribute(obs, "x", T::Float, "to_float(epoch(time)) / 86400.0").unwrap();
    let oy = s.set_attribute(ox, "y", T::Float, "temperature").unwrap();
    let od = s.set_attribute(oy, "display", T::DrawList, "point('blue') ++ nodraw()").unwrap();
    s.add_viewer(od, "temps").unwrap();
    let t = s.add_table("Stations").unwrap();
    let one = s.restrict(t, "id = 0").unwrap();
    let sx = s.set_attribute(one, "x", T::Float, "longitude").unwrap();
    let sy = s.set_attribute(sx, "y", T::Float, "latitude").unwrap();
    let tee = s.add_tee(sy, 0).unwrap();
    let wh = s
        .set_attribute(
            tee,
            "display",
            T::DrawList,
            "circle(0.05,'red') ++ viewer('temps', 50.0, 5500.0, 20.0, 0.4, 0.3)",
        )
        .unwrap();
    let under0 = s
        .add_box(BoxKind::RelOp {
            op: RelOpKind::SetAttribute {
                name: "display".into(),
                ty: T::DrawList,
                def: parse("rect(0.5,0.5,'green') ++ nodraw()").unwrap(),
            },
            shape: PortType::R,
            sel: Selection::default(),
        })
        .unwrap();
    s.connect(tee, 1, under0, 0).unwrap();
    let under = s.set_range(under0, -1e9, -0.001, Selection::default()).unwrap();
    let both = s.overlay(wh, under, vec![], true).unwrap();
    s.add_viewer(both, "stations").unwrap();
    s.render("stations").unwrap();
    let mut passed = false;
    for _ in 0..80 {
        if s.zoom("stations", 0.5).unwrap().is_some() {
            passed = true;
            break;
        }
    }
    assert!(passed, "zooming onto the station passes through its wormhole");
    s.zoom("temps", 0.5).unwrap();
}

/// Render a case in an untraced and a traced session; both must agree
/// with each other and with the oracle.
fn check(build: impl Fn(&mut Session) -> (String, Vec<Magnifier>), group: bool) {
    let mut plain = session(None);
    let (canvas, lenses) = build(&mut plain);
    let rec = Arc::new(InMemoryRecorder::new());
    let mut traced = session(Some(rec.clone()));
    build(&mut traced);

    let a = render(&mut plain, &canvas);
    let b = render(&mut traced, &canvas);
    assert!(!rec.completed_spans().is_empty(), "the traced session recorded spans");
    assert!(a.fb.ink_fraction() > 0.0, "'{canvas}' drew something");
    assert!(a == b, "'{canvas}': traced render differs from the untraced one");

    let want = if group {
        oracle_group(&mut plain, &canvas)
    } else {
        oracle_canvas(&mut plain, &canvas, &lenses)
    };
    assert!(a == want, "'{canvas}': session render differs from compose+draw+blit");
}

#[test]
fn relation_canvas_matches_oracle() {
    check(|s| (relation_canvas(s).into(), Vec::new()), false);
}

#[test]
fn composite_with_slaved_magnifier_matches_oracle() {
    check(|s| ("lens".into(), vec![slaved_magnifier(s)]), false);
}

#[test]
fn figure9_alternative_display_magnifier_matches_oracle() {
    check(|s| ("fig9".into(), vec![alternative_display_magnifier(s)]), false);
}

#[test]
fn stitched_group_matches_oracle() {
    check(|s| (stitched_group(s).into(), Vec::new()), true);
}

#[test]
fn replicated_group_matches_oracle() {
    check(|s| (replicated_group(s).into(), Vec::new()), true);
}

#[test]
fn rear_view_matches_oracle() {
    let mut plain = session(None);
    rear_view(&mut plain);
    let rec = Arc::new(InMemoryRecorder::new());
    let mut traced = session(Some(rec));
    rear_view(&mut traced);

    let (fb, scene) = plain.render_rear_view(160, 120).unwrap().unwrap();
    let (fb_t, scene_t) = traced.render_rear_view(160, 120).unwrap().unwrap();
    assert!(fb == fb_t && scene == scene_t, "traced rear view differs from the untraced one");
    assert!(fb.count_color(Color::GREEN) > 0, "underside marker in the mirror");

    // The mirror looks at the departed canvas from below: the viewer left
    // behind on it still holds the pass-through position.
    let rear = plain.rear_view_elevation().unwrap().min(-1e-3);
    let left = plain.viewers.get("stations").unwrap().position.clone();
    let extent = rear.abs().max(left.elevation.max(1e-3));
    let vp = Viewport::new(left.center, extent, 160, 120);
    let c = plain.displayable("stations").unwrap().into_composite().unwrap();
    let (want_fb, _, want_scene) = draw(&c, &vp, rear, &[], CullOptions::default());
    assert!(fb == want_fb && scene == want_scene, "rear view differs from compose+draw");
}

/// Spans named `name` whose interval lies inside `outer`, one level or
/// more below it.
fn nested<'a>(
    spans: &'a [CompletedSpan],
    name: &str,
    outer: &CompletedSpan,
) -> Vec<&'a CompletedSpan> {
    spans
        .iter()
        .filter(|sp| {
            sp.name == name
                && sp.depth > outer.depth
                && sp.begin_ns >= outer.begin_ns
                && sp.begin_ns + sp.dur_ns <= outer.begin_ns + outer.dur_ns
        })
        .collect()
}

#[test]
fn traced_group_render_spans_every_member() {
    for build in [stitched_group, replicated_group] {
        let rec = Arc::new(InMemoryRecorder::new());
        let mut s = session(Some(rec.clone()));
        let canvas = build(&mut s);
        rec.reset();
        let frame = s.render(canvas).unwrap();
        let members = frame.member_hits.len();
        assert_eq!(members, 2);

        let spans = rec.completed_spans();
        let renders: Vec<_> = spans.iter().filter(|sp| sp.name == "session.render").collect();
        assert_eq!(renders.len(), 1, "one session.render span");
        let compose = nested(&spans, "render.compose", renders[0]);
        let draw = nested(&spans, "render.draw", renders[0]);
        assert_eq!(compose.len(), members, "'{canvas}': one render.compose per member");
        assert_eq!(draw.len(), members, "'{canvas}': one render.draw per member");
        for (i, sp) in draw.iter().enumerate() {
            let drawn = sp.fields.iter().find(|(k, _)| *k == "drawn").map(|(_, v)| *v);
            assert_eq!(drawn, Some(frame.member_hits[i].len() as i64), "member {i} drawn count");
        }
        let all = |name: &str| spans.iter().filter(|sp| sp.name == name).count();
        assert_eq!(all("render.compose"), members, "no compose outside session.render");
        assert_eq!(all("render.draw"), members, "no draw outside session.render");
    }
}
