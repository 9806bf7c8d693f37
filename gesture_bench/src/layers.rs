//! The traced run.  The benchmark renders every gesture itself through
//! the public call of each layer, on its own [`Engine`] over the session's
//! program and catalog, and records one span around each call:
//!
//! | span                         | layer call                                     |
//! |------------------------------|------------------------------------------------|
//! | `core.gesture_op`            | `Session::pan` / `set_slider` / group-member op |
//! | `dataflow.demand`            | `plan_root_header` + `window_predicate` + `demand_planned_opts`, or `demand_displayable` |
//! | `viewer.compose`             | `Viewer::scene` (`compose_scene`), per member   |
//! | `render.draw`                | `render_scene` (+ the group blit), per member   |
//! | `relational.install_update`  | `install_update_delta`                         |
//! | `dataflow.delta_apply`       | `Engine::apply_delta`                          |
//!
//! Each gesture or edit is one root span; its children share its id.  The
//! work is done once, never re-executed after a `Session::render`: a
//! second copy would run on warm CPU caches and misstate the layers.

use crate::scenes::{apply, Edit, EditTurn, Frame, Gesture, Scene, Script, CANVAS};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tioga2_core::{CoreError, Session};
use tioga2_dataflow::{BoxKind, Engine, FlowError, NodeId};
use tioga2_display::{Displayable, Group};
use tioga2_expr::{Color, Value};
use tioga2_obs::{CompletedSpan, InMemoryRecorder, Recorder};
use tioga2_relational::update::{install_update_delta, FieldChange};
use tioga2_render::{font, render_scene, Framebuffer};
use tioga2_viewer::group::member_viewer_name;

/// Caption height of a group member, as `GroupWindow::render` lays it out.
const CAPTION_H: i32 = 12;

/// Span journal capacity: enough for a full traced phase of the fastest
/// workload without the ring evicting spans.
const SPAN_CAPACITY: usize = 1 << 18;

/// Counts taken at the layer boundaries of one gesture or edit.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// The demand carried the viewer's window into the plan.
    pub windowed: bool,
    /// The demand was answered from the plan cache or the box memo.
    pub cache_hit: bool,
    pub box_evals: u64,
    /// Tuples the demand handed to compose.
    pub rows_in: u64,
    /// Scene items composed.
    pub items: u64,
    /// Screen objects drawn into the hit index.
    pub hits: u64,
    /// `DeltaOutcome` of an edit: cache entries patched vs evicted.
    pub applied: u64,
    pub fallback: u64,
}

/// One traced gesture or edit.
#[derive(Debug, Clone)]
pub struct Sample {
    pub counts: Counts,
    pub total_ms: f64,
    /// Self time per span name, in ms.
    pub self_ms: BTreeMap<String, f64>,
}

impl Sample {
    pub fn ms(&self, layer: &str) -> f64 {
        self.self_ms.get(layer).copied().unwrap_or(0.0)
    }
}

#[derive(Debug, Default)]
pub struct Traced {
    pub gestures: Vec<Sample>,
    pub edits: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
}

impl Traced {
    pub fn merge(&mut self, o: Traced) {
        self.gestures.extend(o.gestures);
        self.edits.extend(o.edits);
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    fn record(
        &mut self,
        r: Result<Frame, CoreError>,
        frame: &mut Frame,
        log: &mut Vec<(String, bool, Counts)>,
        id: String,
        is_edit: bool,
        c: Counts,
    ) {
        self.attempted += 1;
        match r {
            Ok(f) => {
                *frame = f;
                log.push((id, is_edit, c));
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("benchmark: traced operation failed: {e}");
            }
        }
    }
}

fn span<R>(rec: &InMemoryRecorder, name: &str, id: &str, f: impl FnOnce() -> R) -> R {
    let sp = rec.span_begin(name, id);
    let r = f();
    rec.span_end(sp, &[]);
    r
}

/// Per span id: the root span's duration and every span name's self time
/// (its duration minus the part its direct children cover), in ms.
fn attribute(spans: &[CompletedSpan]) -> HashMap<&str, (f64, BTreeMap<String, f64>)> {
    let mut by_id: HashMap<&str, Vec<&CompletedSpan>> = HashMap::new();
    for s in spans {
        by_id.entry(s.detail.as_str()).or_default().push(s);
    }
    let mut out = HashMap::new();
    for (id, group) in by_id {
        let root = group.iter().map(|s| s.depth).min().unwrap_or(0);
        let mut total = 0.0;
        let mut self_ms: BTreeMap<String, f64> = BTreeMap::new();
        for s in &group {
            let end = s.begin_ns + s.dur_ns;
            let covered: u64 = group
                .iter()
                .filter(|c| c.depth == s.depth + 1 && c.begin_ns >= s.begin_ns)
                .filter(|c| c.begin_ns + c.dur_ns <= end)
                .map(|c| c.dur_ns)
                .sum();
            *self_ms.entry(s.name.clone()).or_default() +=
                s.dur_ns.saturating_sub(covered) as f64 / 1e6;
            if s.depth == root {
                total += s.dur_ns as f64 / 1e6;
            }
        }
        out.insert(id, (total, self_ms));
    }
    out
}

/// Renders a session's canvas through the layer calls.
struct Tracer {
    engine: Engine,
    /// The engine's own counters (`plan.cache_hits`).
    engine_rec: Arc<InMemoryRecorder>,
    rec: Arc<InMemoryRecorder>,
    node: NodeId,
}

impl Tracer {
    fn new(s: &Session) -> Result<Tracer, CoreError> {
        let node = s
            .graph
            .nodes()
            .find(|n| matches!(&n.kind, BoxKind::Viewer { canvas, .. } if canvas == CANVAS))
            .map(|n| n.id)
            .ok_or_else(|| CoreError::Session(format!("no viewer box for '{CANVAS}'")))?;
        let mut engine = Engine::new(s.env.catalog.clone());
        let engine_rec = Arc::new(InMemoryRecorder::new());
        engine.set_recorder(engine_rec.clone());
        let rec = Arc::new(InMemoryRecorder::with_capacity(SPAN_CAPACITY));
        Ok(Tracer { engine, engine_rec, rec, node })
    }

    /// The canvas content, with the viewer's window pushed into the plan
    /// exactly when `Session::render` would push it.
    fn demand(&mut self, s: &Session) -> Result<(Displayable, bool), CoreError> {
        let g = &s.graph;
        if let Some(hdr) = self.engine.plan_root_header(g, self.node, 0)? {
            let viewer = s.viewers.get(CANVAS).ok();
            if let Some(pred) = viewer.and_then(|v| tioga2_viewer::window_predicate(v, &hdr)) {
                let data = self.engine.demand_planned_opts(g, self.node, 0, true, Some(&pred))?;
                return Ok((data.into_displayable().map_err(FlowError::from)?, true));
            }
        }
        Ok((self.engine.demand_displayable(g, self.node, 0)?, false))
    }

    fn render(&mut self, s: &mut Session, id: &str, c: &mut Counts) -> Result<Frame, CoreError> {
        let rec = self.rec.clone();
        let evals = self.engine.stats.box_evals;
        let plan_hits = self.engine_rec.counter("plan.cache_hits").unwrap_or(0);
        let (content, windowed) = span(&rec, "dataflow.demand", id, || self.demand(s))?;
        c.windowed = windowed;
        c.box_evals = self.engine.stats.box_evals - evals;
        c.cache_hit = if windowed {
            self.engine_rec.counter("plan.cache_hits").unwrap_or(0) > plan_hits
        } else {
            c.box_evals == 0
        };
        c.rows_in = content.tuple_count() as u64;
        match content {
            Displayable::G(group) => draw_group(&rec, s, &group, id, c),
            other => {
                let v = s.viewers.get(CANVAS)?.clone();
                let scene = span(&rec, "viewer.compose", id, || {
                    other
                        .into_composite()
                        .map_err(CoreError::from)
                        .and_then(|comp| v.scene(&comp).map_err(CoreError::from))
                })?;
                c.items = scene.len() as u64;
                let (fb, hits) = span(&rec, "render.draw", id, || {
                    let mut fb = Framebuffer::new(v.size.0, v.size.1);
                    let hits = render_scene(&scene, &v.viewport(), &mut fb);
                    (fb, hits)
                });
                c.hits = hits.len() as u64;
                Ok(Frame { fb, hits, member_hits: Vec::new() })
            }
        }
    }

    /// An edit through the relational and dataflow layers, then the
    /// render that shows it.  The clicked object comes from `frame`.
    fn edit(
        &mut self,
        scene: Scene,
        s: &mut Session,
        e: &Edit,
        frame: &Frame,
        id: &str,
        c: &mut Counts,
    ) -> Result<Frame, CoreError> {
        let hit = frame
            .top_hit(e.member, e.x, e.y)
            .ok_or_else(|| CoreError::Update("no screen object at that position".into()))?;
        let table = hit.provenance.source.clone().ok_or_else(|| {
            CoreError::Update("screen object is not traceable to a base table".into())
        })?;
        let change = FieldChange { field: scene.edit_field().into(), value: Value::Float(e.value) };
        let rec = self.rec.clone();
        let delta = span(&rec, "relational.install_update", id, || {
            install_update_delta(&s.env.catalog, &table, hit.provenance.row_id, &[change])
        })?;
        let outcome =
            span(&rec, "dataflow.delta_apply", id, || self.engine.apply_delta(&s.graph, &delta));
        c.applied = outcome.applied;
        c.fallback = outcome.fallback;
        self.render(s, id, c)
    }
}

/// `GroupWindow::render`, one member at a time through the layer calls.
fn draw_group(
    rec: &InMemoryRecorder,
    s: &mut Session,
    group: &Group,
    id: &str,
    c: &mut Counts,
) -> Result<Frame, CoreError> {
    let gw = s.group_window_mut(CANVAS)?;
    if gw.window.iconified || gw.group.members.len() != group.members.len() {
        return Err(CoreError::Session("group window no longer matches its content".into()));
    }
    let mut fb = Framebuffer::new(gw.size.0, gw.size.1);
    let mut member_hits = Vec::with_capacity(group.members.len());
    for (i, member) in group.members.iter().enumerate() {
        let v = gw.viewers.get(&member_viewer_name(i))?;
        let (x, y, w, h) = gw.member_rect(i);
        let scene = span(rec, "viewer.compose", id, || v.scene(member))?;
        c.items += scene.len() as u64;
        let hits = span(rec, "render.draw", id, || {
            let mut sub = Framebuffer::new(v.size.0, v.size.1);
            let hits = render_scene(&scene, &v.viewport(), &mut sub);
            fb.blit(&sub, x, y + CAPTION_H);
            fb.draw_rect(x - 1, y + CAPTION_H - 1, x + w as i32, y + h as i32, 1, Color::GRAY);
            font::draw_text(&mut fb, x, y, &group.labels[i], Color::BLACK, 1);
            hits
        });
        c.hits += hits.len() as u64;
        member_hits.push(hits);
    }
    Ok(Frame { fb, hits: Default::default(), member_hits })
}

/// Run `script` against `s` for `secs`, tracing every gesture and edit.
/// Returns the samples, the last frame and the span recorder.
pub fn run_traced(
    scene: Scene,
    s: &mut Session,
    script: &mut Script,
    warmup: usize,
    secs: f64,
) -> Result<(Traced, Frame, Arc<InMemoryRecorder>), CoreError> {
    let mut tracer = Tracer::new(s)?;
    let rec = tracer.rec.clone();
    let mut frame = tracer.render(s, "init", &mut Counts::default())?;
    let mut log: Vec<(String, bool, Counts)> = Vec::new();
    let mut out = Traced::default();
    let budget = Duration::from_secs_f64(secs);
    let mut start = Instant::now();
    for i in 0.. {
        if i == warmup {
            rec.reset();
            log.clear();
            out = Traced::default();
            start = Instant::now();
        }
        if i >= warmup && start.elapsed() >= budget {
            break;
        }
        let id = format!("g{i}");
        let mut c = Counts::default();
        let g: Gesture = script.next_gesture();
        let root = rec.span_begin("gesture", &id);
        let r = span(&rec, "core.gesture_op", &id, || apply(s, g))
            .and_then(|_| tracer.render(s, &id, &mut c));
        rec.span_end(root, &[]);
        out.record(r, &mut frame, &mut log, id, false, c);
        if let EditTurn::Do(e) = script.next_edit(&frame) {
            let id = format!("e{i}");
            let mut c = Counts::default();
            let root = rec.span_begin("edit", &id);
            let r = tracer.edit(scene, s, &e, &frame, &id, &mut c);
            rec.span_end(root, &[]);
            out.record(r, &mut frame, &mut log, id, true, c);
        }
    }
    let spans = rec.completed_spans();
    let by_id = attribute(&spans);
    for (id, is_edit, c) in log {
        let Some((total_ms, self_ms)) = by_id.get(id.as_str()) else { continue };
        let sample = Sample { counts: c, total_ms: *total_ms, self_ms: self_ms.clone() };
        if is_edit { &mut out.edits } else { &mut out.gestures }.push(sample);
    }
    Ok((out, frame, rec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &str, id: &str, begin: u64, dur: u64, depth: u32) -> CompletedSpan {
        CompletedSpan {
            id: 0,
            name: name.into(),
            detail: id.into(),
            begin_ns: begin,
            dur_ns: dur,
            depth,
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            sp("gesture", "g1", 0, 10_000_000, 0),
            sp("core.gesture_op", "g1", 0, 1_000_000, 1),
            sp("viewer.compose", "g1", 2_000_000, 3_000_000, 1),
            sp("viewer.compose", "g1", 5_000_000, 1_000_000, 1),
            sp("render.draw", "g1", 6_000_000, 2_000_000, 1),
            sp("gesture", "g2", 20_000_000, 4_000_000, 0),
        ];
        let by_id = attribute(&spans);
        let (total, g1) = &by_id["g1"];
        assert_eq!(*total, 10.0);
        assert_eq!(g1["gesture"], 3.0, "root self time is the glue between layers");
        assert_eq!(g1["viewer.compose"], 4.0, "per-member spans add up");
        assert_eq!(g1["render.draw"], 2.0);
        assert_eq!(by_id["g2"].1["gesture"], 4.0);
    }
}
