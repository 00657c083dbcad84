//! Timing samples, the in-memory span recorder, peak RSS, and the JSON
//! writer the result line and the trace files use.

use std::fmt::Write as _;
use std::time::Instant;

/// A set of latency samples in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push_ms(&mut self, since: Instant) -> f64 {
        let ms = since.elapsed().as_secs_f64() * 1e3;
        self.0.push(ms);
        ms
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentile (`q` in 0..=1); 0 for an empty set.
    pub fn pct(&self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.pct(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// One recorded span. `root` is the outermost open span when this one
/// began (itself for a root); every span of one iteration or request
/// shares that root, which is the shared id the trace file prints.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub root: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder. When off, `begin`/`end` return at once and
/// read no clock, so the untraced runs execute the same code path.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let idx = self.spans.len();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            root: self.stack.first().copied().unwrap_or(idx),
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("end without begin");
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Per-root totals of spans named `name` under every root named
    /// `root`, as samples (roots without such a span contribute nothing).
    pub fn per_root(&self, root: &str, name: &str) -> Samples {
        let mut out = Samples::default();
        for (i, r) in self.spans.iter().enumerate() {
            if r.parent.is_none() && r.name == root {
                let mut hit = false;
                let mut total = 0.0;
                for s in self.spans.iter().filter(|s| s.root == i && s.name == name) {
                    hit = true;
                    total += s.ms();
                }
                if hit {
                    out.0.push(total);
                }
            }
        }
        out
    }

    /// Self time per span name: `(name, count, total_ms, self_ms)`, where
    /// self time is a span's duration minus the time its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.ms() - child_ms[i];
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += s.ms();
                    e.3 += own;
                }
                None => out.push((s.name, 1, s.ms(), own)),
            }
        }
        out
    }

    /// The spans as JSON lines: name, root id, parent id, start, end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"root\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.root, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (NaN and infinities become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
