//! The workloads' data, programs and seeded gesture scripts, the timed
//! loop that drives a [`Session`] through its public gesture API, and the
//! output check that rebuilds the final view cold.

use crate::stats::Rng;
use std::time::{Duration, Instant};
use tioga2_core::canvas::CanvasFrame;
use tioga2_core::{CoreError, Environment, Session};
use tioga2_display::attr_ops::AttrRole;
use tioga2_display::compose::PartitionSpec;
use tioga2_display::Selection;
use tioga2_expr::{parse, timestamp_from_parts, ScalarType as T, Value};
use tioga2_relational::relation::RelationBuilder;
use tioga2_relational::Catalog;
use tioga2_render::{Framebuffer, HitIndex};
use tioga2_viewer::group::member_viewer_name;

/// The one canvas every workload draws.
pub const CANVAS: &str = "w";

/// The served workload's probe pixel: the canvas centre.
pub const PROBE: (i32, i32) = (320, 240);

/// Untimed gestures (with their edits) before the timed phase, so caches
/// are filled and lazy set-up is done.
pub const WARMUP: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scene {
    /// 100k stored points behind `Restrict → Sort`, zoomed to 0.05: each
    /// pan moves the window, so the plan re-runs over every row while only
    /// a few hundred tuples reach compose.
    DeepZoom,
    /// 10k points at fitted zoom with a slider dimension: the demand is a
    /// memo hit and the gesture is compose plus draw of nearly every tuple.
    Overview,
    /// Four years of daily observations at 30 stations, replicated into two
    /// members around a seeded cutoff: group canvases compose every member
    /// row on every gesture.
    GroupReplicate,
    /// The in-process form of the served workload: `Restrict` over 20k
    /// points at zoom 0.1, probed and edited at the canvas centre.
    Served,
}

/// One direct-manipulation gesture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gesture {
    Pan(i32, i32),
    Slider(f64, f64),
    MemberPan(usize, i32, i32),
    MemberZoom(usize, f64),
}

/// One §8 update: the pixel clicked, the group member it lies in, and the
/// new value of the scene's edited field.
#[derive(Debug, Clone, PartialEq)]
pub struct Edit {
    pub member: Option<usize>,
    pub x: i32,
    pub y: i32,
    pub value: f64,
}

/// What a render produced, reduced to what the output check compares.
pub struct Frame {
    pub fb: Framebuffer,
    pub hits: HitIndex,
    pub member_hits: Vec<HitIndex>,
}

impl From<CanvasFrame> for Frame {
    fn from(f: CanvasFrame) -> Frame {
        Frame { fb: f.fb, hits: f.hits, member_hits: f.member_hits }
    }
}

impl Frame {
    /// The topmost screen object under a pixel of the canvas or member.
    pub fn top_hit(
        &self,
        member: Option<usize>,
        x: i32,
        y: i32,
    ) -> Option<&tioga2_render::HitRecord> {
        match member {
            Some(m) => self.member_hits.get(m)?.top_hit(x, y),
            None => self.hits.top_hit(x, y),
        }
    }

    fn hit_counts(&self) -> Vec<usize> {
        std::iter::once(self.hits.len()).chain(self.member_hits.iter().map(HitIndex::len)).collect()
    }
}

/// The output check: byte-identical pixels and the same hit counts.
pub fn check_frames(live: &Frame, cold: &Frame) -> Result<(), String> {
    if (live.fb.width(), live.fb.height()) != (cold.fb.width(), cold.fb.height()) {
        return Err("live and cold frames differ in size".into());
    }
    if let Some(i) = live.fb.pixels().iter().zip(cold.fb.pixels()).position(|(a, b)| a != b) {
        let w = live.fb.width() as usize;
        return Err(format!("live and cold frames differ at pixel ({}, {})", i % w, i / w));
    }
    if live.hit_counts() != cold.hit_counts() {
        return Err(format!(
            "hit counts differ: live {:?}, cold {:?}",
            live.hit_counts(),
            cold.hit_counts()
        ));
    }
    Ok(())
}

/// A seeded scatter of `n` points with stored `x`, `y` in [0, 1000) and
/// `mass` in [0, 100).
pub fn points_catalog(n: usize, seed: u64) -> Catalog {
    let mut rng = Rng::new(seed, 1);
    let mut b = RelationBuilder::new()
        .field("name", T::Text)
        .field("x", T::Float)
        .field("y", T::Float)
        .field("mass", T::Float);
    for i in 0..n {
        b = b.row(vec![
            Value::Text(format!("p{i}")),
            Value::Float(rng.range(0.0, 1000.0)),
            Value::Float(rng.range(0.0, 1000.0)),
            Value::Float(rng.range(0.0, 100.0)),
        ]);
    }
    let c = Catalog::new();
    c.register("Points", b.build().expect("points schema is valid"));
    c
}

/// Days of observations per station in the replicate workload.
const OBS_DAYS: i64 = 1460;

/// The replicate cutoff: a seeded day within 5% of the series' middle.
fn cutoff_epoch(seed: u64) -> i64 {
    let day = OBS_DAYS / 2 + Rng::new(seed, 3).int(-36, 36) as i64;
    timestamp_from_parts(1985, 1, 1, 0, 0) + day * 86_400
}

/// The set-up commands of the served workload, one per line.
pub const SERVED_SETUP: [&str; 4] =
    ["table Points", "restrict 0 mass >= 1.0", "viewer 1 w", "zoom w 0.1"];

impl Scene {
    pub fn name(self) -> &'static str {
        match self {
            Scene::DeepZoom => "deep_zoom",
            Scene::Overview => "overview",
            Scene::GroupReplicate => "group_replicate",
            Scene::Served => "served_edit_mix",
        }
    }

    /// The base tables, generated from the seed.
    pub fn catalog(self, seed: u64) -> Catalog {
        match self {
            // Overview and served sizes keep each gesture's working set near
            // the last-level cache: at 50k points a gesture streams tens of
            // MB and its latency follows whatever else the host runs,
            // swinging 25% between runs of one seed.
            Scene::DeepZoom => points_catalog(100_000, seed),
            Scene::Overview => points_catalog(10_000, seed),
            Scene::Served => points_catalog(20_000, seed),
            Scene::GroupReplicate => {
                let cat = Catalog::new();
                let st = tioga2_datagen::stations(&tioga2_datagen::StationConfig { n: 30, seed });
                let obs = tioga2_datagen::observations(
                    &st,
                    &tioga2_datagen::ObservationConfig {
                        per_station: OBS_DAYS as usize,
                        step: 86_400,
                        seed: seed ^ 0x9e37,
                        ..Default::default()
                    },
                );
                cat.register("Stations", st);
                cat.register("Observations", obs);
                cat
            }
        }
    }

    /// Add the workload's program, ending in the viewer of [`CANVAS`].
    pub fn build(self, s: &mut Session, seed: u64) -> Result<(), CoreError> {
        match self {
            Scene::DeepZoom => {
                let t = s.add_table("Points")?;
                let r = s.restrict(t, "mass >= 0.0")?;
                let sorted = s.sort(r, &[("name", true)])?;
                s.add_viewer(sorted, CANVAS)?;
            }
            Scene::Overview => {
                let t = s.add_table("Points")?;
                let d = s.set_attribute(
                    t,
                    "display",
                    T::DrawList,
                    "circle(2.0,'red') ++ offset(text(name,'black'), 3.0, 0.0)",
                )?;
                let level = s.add_attribute(d, "level", T::Float, "mass", AttrRole::Location)?;
                s.add_viewer(level, CANVAS)?;
            }
            Scene::GroupReplicate => {
                let obs = s.add_table("Observations")?;
                let x = s.set_attribute(obs, "x", T::Float, "to_float(epoch(time)) / 86400.0")?;
                let y = s.set_attribute(x, "y", T::Float, "temperature")?;
                // One mark per row: four text cells per row (the default
                // table display) made every gesture stream 40 MB.
                let y = s.set_attribute(y, "display", T::DrawList, "point('blue') ++ nodraw()")?;
                let cut = cutoff_epoch(seed);
                let g = s.replicate(
                    y,
                    PartitionSpec::Predicates(vec![
                        ("before".into(), parse(&format!("epoch(time) < {cut}"))?),
                        ("after".into(), parse(&format!("epoch(time) >= {cut}"))?),
                    ]),
                    None,
                    Selection::default(),
                )?;
                s.add_viewer(g, CANVAS)?;
            }
            Scene::Served => {
                for line in &SERVED_SETUP[..3] {
                    run_command(s, line)?;
                }
            }
        }
        Ok(())
    }

    /// Data generation, program build and the first fitted render.
    pub fn setup(self, seed: u64) -> Result<Session, CoreError> {
        let mut s = Session::new(Environment::new(self.catalog(seed)));
        self.build(&mut s, seed)?;
        s.render(CANVAS)?;
        match self {
            Scene::DeepZoom => {
                s.zoom(CANVAS, 0.05)?;
                s.render(CANVAS)?;
            }
            Scene::Served => run_command(&mut s, SERVED_SETUP[3])?,
            _ => {}
        }
        Ok(s)
    }

    /// Gestures between two edits.
    pub fn edit_every(self) -> usize {
        match self {
            Scene::Served => 2,
            _ => 4,
        }
    }

    /// The base-table field an edit changes.
    pub fn edit_field(self) -> &'static str {
        match self {
            Scene::GroupReplicate => "temperature",
            _ => "mass",
        }
    }
}

fn run_command(s: &mut Session, line: &str) -> Result<(), CoreError> {
    tioga2_core::command::run_line(s, line).map(|_| ()).map_err(CoreError::Session)
}

/// Apply one gesture through the session (the core layer).
pub fn apply(s: &mut Session, g: Gesture) -> Result<(), CoreError> {
    match g {
        Gesture::Pan(dx, dy) => s.pan(CANVAS, dx, dy),
        Gesture::Slider(lo, hi) => s.set_slider(CANVAS, "level", lo, hi),
        Gesture::MemberPan(m, dx, dy) => Ok(s.group_window_mut(CANVAS)?.pan_member(m, dx, dy)?),
        Gesture::MemberZoom(m, f) => Ok(s.group_window_mut(CANVAS)?.zoom_member(m, f)?),
    }
}

/// A bounded random walk: steps reflect at `±limit` so a long run never
/// wanders off the data.
#[derive(Debug, Clone, Default)]
struct Walk {
    at: (i32, i32),
}

impl Walk {
    fn step(&mut self, rng: &mut Rng, max: i32, limit: i32) -> (i32, i32) {
        let mut axis = |at: &mut i32| {
            let mut d = rng.int(-max, max);
            if (*at + d).abs() > limit {
                d = -d;
            }
            *at += d;
            d
        };
        let dx = axis(&mut self.at.0);
        let dy = axis(&mut self.at.1);
        (dx, dy)
    }
}

/// The seeded gesture and edit stream of one user of one workload.
pub struct Script {
    scene: Scene,
    rng: Rng,
    n: usize,
    edits: usize,
    walks: [Walk; 2],
    zoomed_in: [bool; 2],
}

impl Script {
    pub fn new(scene: Scene, seed: u64, user: u64) -> Script {
        Script {
            scene,
            rng: Rng::new(seed, 100 + user),
            n: 0,
            edits: 0,
            walks: Default::default(),
            zoomed_in: [false; 2],
        }
    }

    pub fn next_gesture(&mut self) -> Gesture {
        self.n += 1;
        let r = &mut self.rng;
        match self.scene {
            Scene::DeepZoom => {
                let (dx, dy) = self.walks[0].step(r, 60, 3000);
                Gesture::Pan(dx, dy)
            }
            Scene::Served => {
                let (dx, dy) = self.walks[0].step(r, 40, 1500);
                Gesture::Pan(dx, dy)
            }
            Scene::Overview if self.n.is_multiple_of(2) => {
                let lo = r.range(0.0, 50.0);
                Gesture::Slider(lo, lo + 50.0)
            }
            // Overview and group pans stay within a few dozen pixels of the
            // fitted view, so the share of data on screen (and with it the
            // cost of a gesture) does not depend on where the walk went.
            Scene::Overview => {
                let (dx, dy) = self.walks[0].step(r, 8, 40);
                Gesture::Pan(dx, dy)
            }
            Scene::GroupReplicate => {
                // Members alternate, and every fifth gesture zooms: in, then
                // out on that member's next zoom, so each member spends half
                // its gestures zoomed in whatever the seed.
                let m = self.n % 2;
                if !self.n.is_multiple_of(5) {
                    let (dx, dy) = self.walks[m].step(r, 20, 60);
                    Gesture::MemberPan(m, dx, dy)
                } else {
                    self.zoomed_in[m] = !self.zoomed_in[m];
                    Gesture::MemberZoom(m, if self.zoomed_in[m] { 0.8 } else { 1.25 })
                }
            }
        }
    }

    /// The edit after the latest gesture, aimed at the frame the user is
    /// looking at: a random screen object, or the probe pixel when served.
    pub fn next_edit(&mut self, frame: &Frame) -> EditTurn {
        self.edit_turn(|scene, r| match scene {
            Scene::Served => frame.top_hit(None, PROBE.0, PROBE.1).map(|_| (None, PROBE)),
            Scene::GroupReplicate => {
                let first = r.below(2);
                [first, 1 - first].into_iter().find_map(|m| {
                    let recs = frame.member_hits.get(m)?.records();
                    (!recs.is_empty()).then(|| (Some(m), center(&recs[r.below(recs.len())])))
                })
            }
            _ => {
                let recs = frame.hits.records();
                (!recs.is_empty()).then(|| (None, center(&recs[r.below(recs.len())])))
            }
        })
    }

    /// [`Script::next_edit`] for a client that only sees the probe click's
    /// reply: whether something lies under [`PROBE`].
    pub fn next_served_edit(&mut self, probe_hit: bool) -> EditTurn {
        self.edit_turn(|_, _| probe_hit.then_some((None, PROBE)))
    }

    fn edit_turn(
        &mut self,
        target: impl FnOnce(Scene, &mut Rng) -> Option<(Option<usize>, (i32, i32))>,
    ) -> EditTurn {
        if !self.n.is_multiple_of(self.scene.edit_every()) {
            return EditTurn::No;
        }
        self.edits += 1;
        let Some((member, (x, y))) = target(self.scene, &mut self.rng) else {
            return EditTurn::Skip;
        };
        let r = &mut self.rng;
        let value = match self.scene {
            // Alternate across the restrict's cut: the row leaves the view,
            // then another row is patched in place.
            Scene::Served => [0.5, 2.0][self.edits % 2],
            Scene::DeepZoom if self.edits % 2 == 1 => -1.0,
            Scene::GroupReplicate => r.range(-10.0, 40.0),
            _ => r.range(0.0, 100.0),
        };
        EditTurn::Do(Edit { member, x, y, value })
    }
}

/// Whether an edit follows the latest gesture.
pub enum EditTurn {
    No,
    /// An edit turn with nothing on screen to edit: counted, not failed.
    Skip,
    Do(Edit),
}

fn center(h: &tioga2_render::HitRecord) -> (i32, i32) {
    ((h.bbox.0 + h.bbox.2) / 2, (h.bbox.1 + h.bbox.3) / 2)
}

/// The command line that performs `edit` through the served protocol.
pub fn edit_line(scene: Scene, e: &Edit) -> String {
    format!("update {CANVAS} {} {} {}={:?}", e.x, e.y, scene.edit_field(), e.value)
}

/// Latencies and counts of one timed phase.
#[derive(Debug, Default)]
pub struct Timings {
    pub gestures_ms: Vec<f64>,
    pub edits_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub skipped_edits: u64,
    pub seconds: f64,
}

impl Timings {
    pub fn merge(&mut self, o: Timings) {
        self.gestures_ms.extend(o.gestures_ms);
        self.edits_ms.extend(o.edits_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.skipped_edits += o.skipped_edits;
        self.seconds = self.seconds.max(o.seconds);
    }

    /// Record one timed operation's outcome.
    pub fn record<X, E: std::fmt::Display>(
        &mut self,
        edit: bool,
        started: Instant,
        r: Result<X, E>,
    ) -> Option<X> {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.attempted += 1;
        match r {
            Ok(x) => {
                if edit { &mut self.edits_ms } else { &mut self.gestures_ms }.push(ms);
                Some(x)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("benchmark: operation failed: {e}");
                None
            }
        }
    }
}

/// Drive `s` through its public API: every gesture is followed by a
/// render, every edit by the render that shows it.  Returns the phase's
/// timings and the last frame.
pub fn run_plain(
    scene: Scene,
    s: &mut Session,
    script: &mut Script,
    warmup: usize,
    secs: f64,
) -> Result<(Timings, Frame), CoreError> {
    let mut frame: Frame = s.render(CANVAS)?.into();
    let mut t = Timings::default();
    let mut step = |t: &mut Timings, frame: &mut Frame| {
        let t0 = Instant::now();
        let g = script.next_gesture();
        if let Some(f) = t.record(false, t0, apply(s, g).and_then(|_| s.render(CANVAS))) {
            *frame = f.into();
        }
        match script.next_edit(frame) {
            EditTurn::No => {}
            EditTurn::Skip => t.skipped_edits += 1,
            EditTurn::Do(e) => {
                let t0 = Instant::now();
                let r = edit_session(scene, s, &e).and_then(|_| s.render(CANVAS));
                if let Some(f) = t.record(true, t0, r) {
                    *frame = f.into();
                }
            }
        }
    };
    for _ in 0..warmup {
        step(&mut Timings::default(), &mut frame);
    }
    let start = Instant::now();
    let budget = Duration::from_secs_f64(secs);
    while start.elapsed() < budget {
        step(&mut t, &mut frame);
    }
    t.seconds = start.elapsed().as_secs_f64();
    Ok((t, frame))
}

/// Click, fill in and commit the update dialog (paper §8).
fn edit_session(scene: Scene, s: &mut Session, e: &Edit) -> Result<(), CoreError> {
    let mut dialog = match e.member {
        Some(m) => s.begin_update_member(CANVAS, m, e.x, e.y)?,
        None => s.begin_update(CANVAS, e.x, e.y)?,
    };
    dialog.set_field(scene.edit_field(), format!("{:?}", e.value))?;
    dialog.commit(s)
}

/// Rebuild `live`'s final view cold: a fresh session over the same (edited)
/// catalog and program, with the viewer positions copied over.
pub fn cold_frame(scene: Scene, live: &mut Session, seed: u64) -> Result<Frame, CoreError> {
    let mut cold = Session::new(Environment::new(live.env.catalog.clone()));
    scene.build(&mut cold, seed)?;
    cold.render(CANVAS)?;
    if scene == Scene::GroupReplicate {
        let n = live.group_window_mut(CANVAS)?.group.members.len();
        for i in 0..n {
            let name = member_viewer_name(i);
            let pos = live.group_window_mut(CANVAS)?.viewers.get(&name)?.position.clone();
            cold.group_window_mut(CANVAS)?.viewers.get_mut(&name)?.position = pos;
        }
    } else {
        cold.viewers.get_mut(CANVAS)?.position = live.viewers.get(CANVAS)?.position.clone();
    }
    Ok(cold.render(CANVAS)?.into())
}
