//! The served workload: `tiogad` in-process, two closed-loop users on two
//! connections over one shared catalog; and the probe that prices one frame
//! over the wire, through the admission queue (`Server::run`) and on a
//! plain session (`command::run_line`).

use crate::scenes::{
    edit_line, points_catalog, EditTurn, Frame, Gesture, Scene, Script, Timings, CANVAS, PROBE,
    SERVED_SETUP,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tioga2_core::command::{run_line, Response};
use tioga2_core::{Environment, Session};
use tioga2_server::{Client, Server, ServerConfig, ServerHandle};

/// Concurrent users of the served workload.
pub const USERS: usize = 2;

/// Something that runs one command line and returns its reply body.
pub trait Lines: Send {
    fn line(&mut self, line: &str) -> Result<String, String>;
}

impl Lines for Client {
    fn line(&mut self, line: &str) -> Result<String, String> {
        self.run(line).map_err(|e| format!("wire: {e}"))?
    }
}

/// A session reached through `Server::run`: admission and the session
/// worker's queue, without the wire.
pub struct Admitted {
    server: Arc<Server>,
    sid: String,
}

impl Lines for Admitted {
    fn line(&mut self, line: &str) -> Result<String, String> {
        self.server.run(&self.sid, line).map(|(body, _)| body)
    }
}

impl Lines for Session {
    fn line(&mut self, line: &str) -> Result<String, String> {
        match run_line(self, line)? {
            Response::Message(m) => Ok(m),
            Response::Quit => Ok(String::new()),
        }
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        max_sessions: USERS,
        max_per_tenant: USERS,
        telemetry: false,
        journal_dir: None,
        ..ServerConfig::default()
    }
}

fn attach(c: &mut Client, user: usize) -> Result<(), String> {
    c.attach(Some(&format!("u{user}")), Some("bench")).map_err(|e| e.to_string())??;
    Ok(())
}

fn probe_line() -> String {
    format!("click {CANVAS} {} {}", PROBE.0, PROBE.1)
}

/// What one user did: its timings and every state-changing line that
/// succeeded, in order (the replay log).
#[derive(Default)]
pub struct UserLog {
    pub timings: Timings,
    pub log: Vec<String>,
}

/// One served user for `secs` after `warmup` gestures.  A gesture is
/// `pan` + the probe `click`; every second gesture whose probe found an
/// object is followed by an `update` at the probe pixel + `click`.
pub fn served_user(
    runner: &mut dyn Lines,
    script: &mut Script,
    warmup: usize,
    secs: f64,
) -> UserLog {
    let mut out = UserLog::default();
    let click = probe_line();
    let mut step = |t: &mut Timings, log: &mut Vec<String>| {
        let Gesture::Pan(dx, dy) = script.next_gesture() else {
            unreachable!("the served script only pans")
        };
        let pan = format!("pan {CANVAS} {dx} {dy}");
        let t0 = Instant::now();
        let moved = runner.line(&pan);
        if moved.is_ok() {
            log.push(pan);
        }
        let reply = t.record(false, t0, moved.and_then(|_| runner.line(&click)));
        let hit = reply.is_some_and(|m| m != "nothing there");
        match script.next_served_edit(hit) {
            EditTurn::No => {}
            EditTurn::Skip => t.skipped_edits += 1,
            EditTurn::Do(e) => {
                let update = edit_line(Scene::Served, &e);
                let t0 = Instant::now();
                let changed = runner.line(&update);
                if changed.is_ok() {
                    log.push(update);
                }
                t.record(true, t0, changed.and_then(|_| runner.line(&click)));
            }
        }
    };
    for _ in 0..warmup {
        step(&mut Timings::default(), &mut out.log);
    }
    let start = Instant::now();
    let budget = Duration::from_secs_f64(secs);
    while start.elapsed() < budget {
        step(&mut out.timings, &mut out.log);
    }
    out.timings.seconds = start.elapsed().as_secs_f64();
    out
}

/// How a user reaches its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Way {
    /// `Client::run` over TCP to a `ServerHandle`.
    Wire,
    /// `Server::run`: admission and the session queue.
    Admission,
    /// `command::run_line` on a plain session.
    Local,
}

/// [`USERS`] concurrent users reach a fitted eight-point canvas by `way`
/// and `pan` it for `secs`.  A pan on a fitted canvas does no demand, so
/// its latency is the fixed cost of the path a frame takes.
pub fn probe(way: Way, seed: u64, secs: f64) -> Result<Timings, String> {
    let cat = points_catalog(8, seed);
    let mut handle = match way {
        Way::Wire => Some(
            ServerHandle::start(cat.clone(), server_config(), "127.0.0.1:0")
                .map_err(|e| e.to_string())?,
        ),
        _ => None,
    };
    let server = (way == Way::Admission).then(|| Server::new(cat.clone(), server_config()));
    let mut runners: Vec<Box<dyn Lines>> = Vec::new();
    for i in 0..USERS {
        let mut r: Box<dyn Lines> = if let Some(h) = &handle {
            let mut c = Client::connect(h.addr()).map_err(|e| e.to_string())?;
            attach(&mut c, i)?;
            Box::new(c)
        } else if let Some(srv) = &server {
            let sid = srv.attach(Some(&format!("u{i}")), "bench")?;
            Box::new(Admitted { server: srv.clone(), sid })
        } else {
            Box::new(Session::new(Environment::new(cat.fork())))
        };
        for l in ["table Points", "viewer 0 w", "zoom w 1.0"] {
            r.line(l)?;
        }
        runners.push(r);
    }
    let pan = |r: &mut dyn Lines| {
        let mut t = Timings::default();
        let start = Instant::now();
        let mut dx = 1;
        while start.elapsed() < Duration::from_secs_f64(secs) {
            dx = -dx;
            let t0 = Instant::now();
            t.record(false, t0, r.line(&format!("pan {CANVAS} {dx} 0")));
        }
        t.seconds = start.elapsed().as_secs_f64();
        t
    };
    let mut out = Timings::default();
    std::thread::scope(|sc| {
        let users: Vec<_> = runners.iter_mut().map(|r| sc.spawn(|| pan(r.as_mut()))).collect();
        users.into_iter().for_each(|u| out.merge(u.join().expect("probe thread panicked")));
    });
    drop(runners);
    if let Some(h) = &mut handle {
        h.stop();
    }
    if let Some(srv) = &server {
        srv.shutdown();
    }
    Ok(out)
}

/// A running served workload: the daemon plus one connected client per
/// user, each set up and past its first render.
pub struct Fleet {
    pub handle: ServerHandle,
    pub clients: Vec<Client>,
}

pub fn start_fleet(seed: u64) -> Result<Fleet, String> {
    let handle = ServerHandle::start(Scene::Served.catalog(seed), server_config(), "127.0.0.1:0")
        .map_err(|e| e.to_string())?;
    let mut clients = Vec::new();
    for i in 0..USERS {
        let mut c = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
        attach(&mut c, i)?;
        for l in SERVED_SETUP {
            c.line(l)?;
        }
        // The first render at the working zoom.
        c.line(&probe_line())?;
        clients.push(c);
    }
    Ok(Fleet { handle, clients })
}

/// The daemon's rendering of a client's canvas as PPM bytes.  `render`
/// writes `out/<file>.ppm` under the working directory.
pub fn served_ppm(c: &mut Client, user: usize) -> Result<Vec<u8>, String> {
    let file = format!("served_u{user}");
    c.line(&format!("render {CANVAS} {file}"))?;
    let path = format!("out/{file}.ppm");
    let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
    let _ = std::fs::remove_file(&path);
    Ok(bytes)
}

/// A local session that replays a user's log (set-up plus every
/// state-changing line, without the read-only probe clicks), rendered.
pub fn replay(seed: u64, log: &[String]) -> Result<Frame, String> {
    let mut local = Session::new(Environment::new(Scene::Served.catalog(seed)));
    for l in SERVED_SETUP.iter().copied().chain(log.iter().map(String::as_str)) {
        local.line(l).map_err(|e| format!("replay of '{l}' failed: {e}"))?;
    }
    Ok(local.render(CANVAS).map_err(|e| e.to_string())?.into())
}

pub fn check_ppm(served: &[u8], replayed: &Frame) -> Result<(), String> {
    if tioga2_render::ppm::encode(&replayed.fb) == served {
        Ok(())
    } else {
        Err("served frame differs from its replay".into())
    }
}

/// The served output check: each user's final canvas, rendered by the
/// daemon, must equal its replay byte for byte.
pub fn check_replay(fleet: &mut Fleet, logs: &[UserLog], seed: u64) -> Result<(), String> {
    let served: Vec<Vec<u8>> = (fleet.clients.iter_mut().enumerate())
        .map(|(i, c)| served_ppm(c, i))
        .collect::<Result<_, _>>()?;
    let replays: Vec<Result<Frame, String>> = std::thread::scope(|sc| {
        let hs: Vec<_> = logs.iter().map(|u| sc.spawn(|| replay(seed, &u.log))).collect();
        hs.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });
    for (i, (ppm, frame)) in served.iter().zip(replays).enumerate() {
        check_ppm(ppm, &frame?).map_err(|e| format!("user {i}: {e}"))?;
    }
    Ok(())
}
