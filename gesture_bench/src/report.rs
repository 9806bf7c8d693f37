//! One run's result: the line the benchmark prints last and the file it
//! writes under `target/benchmark/`.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations issued in the timed phase.
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn push(&mut self, name: &str, value: Option<f64>, unit: &str) {
        match value.filter(|v| v.is_finite()) {
            Some(value) => {
                self.metrics.push(Metric { name: name.into(), value, unit: unit.into() })
            }
            None => eprintln!("benchmark: metric {name} has too few samples; reported missing"),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// One-line JSON.  Values print in Rust's shortest round-trip form,
    /// so every measured digit survives.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    pub fn parse(text: &str) -> Result<RunResult, String> {
        let mut p = Parser { s: text.trim().as_bytes(), i: 0 };
        let top = p.object()?;
        if p.i != p.s.len() {
            return Err("trailing characters after the result object".into());
        }
        let field = |key: &str| {
            top.iter().find(|(k, _)| k == key).map(|(_, v)| v).ok_or(format!("missing '{key}'"))
        };
        let count = |key: &str| match field(key)? {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("'{key}' is not a whole number")),
        };
        let Json::Bool(correct) = field("correct")? else {
            return Err("'correct' is not a boolean".into());
        };
        let Json::Obj(entries) = field("metrics")? else {
            return Err("'metrics' is not an object".into());
        };
        let mut metrics = Vec::new();
        for (name, entry) in entries {
            let Json::Obj(kv) = entry else {
                return Err(format!("metric {name} is not an object"));
            };
            let (value, unit) = match (&kv[..], kv.len()) {
                ([(vk, Json::Num(v)), (uk, Json::Str(u))], 2) if vk == "value" && uk == "unit" => {
                    (*v, u.clone())
                }
                _ => return Err(format!("metric {name} must be {{\"value\": n, \"unit\": s}}")),
            };
            metrics.push(Metric { name: name.clone(), value, unit });
        }
        Ok(RunResult {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// The subset of JSON the result line uses: objects, strings without
/// escapes, numbers and booleans.
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn object(&mut self) -> Result<Vec<(String, Json)>, String> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(out);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            out.push((key, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while let Some(&c) = self.s.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(self.s[start..self.i - 1].to_vec())
                        .map_err(|e| e.to_string());
                }
                b'\\' => return Err("escapes are not used in result files".into()),
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => Ok(Json::Obj(self.object()?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            _ => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or(format!("bad value at byte {start}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_round_trip_through_json() {
        let mut r = RunResult { correct: true, attempted: 1234, failed: 0, metrics: Vec::new() };
        r.push("gesture_p50_ms", Some(7.412345678901234), "ms");
        r.push("setup_s", Some(0.8127), "s");
        r.push("gestures_per_s", Some(1.0e3 / 7.0), "1/s");
        r.push("edit_p50_ms", None, "ms");
        r.push("bad", Some(f64::NAN), "ms");
        assert_eq!(r.metrics.len(), 3, "missing and non-finite values are dropped");
        let back = RunResult::parse(&r.to_json()).unwrap();
        assert_eq!(back, r, "every digit survives the round trip");
        assert_eq!(back.get("setup_s"), Some(0.8127));
    }

    #[test]
    fn malformed_results_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0}",
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": 3}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x",
        ] {
            assert!(RunResult::parse(bad).is_err(), "accepted {bad:?}");
        }
        let ok = "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}";
        assert_eq!(RunResult::parse(ok).unwrap().failed, 1);
    }
}
