//! The one result type of the harness: a typed table that is also the
//! committed artifact.
//!
//! Every column is marked [`Col::Exact`] (host-independent: counts,
//! windows, fingerprints, verdicts, virtual-time figures) or
//! [`Col::Timed`] (read off the host clock). [`Table::trials`] repeats a
//! cell a tier-fixed number of times, panics if an exact column differs
//! between two trials, and keeps one sample per trial for each timed
//! column, reported as median and quartiles. The table renders two ways —
//! [`core::fmt::Display`] for the terminal and EXPERIMENTS.md,
//! [`Table::to_json`] for `BENCH_<id>.json` with the host fingerprint —
//! and [`Table::exact_drift`] lists every exact value that differs from a
//! committed artifact.

use core::fmt;
use std::process::Command;
use std::time::Instant;

/// How much of an experiment runs and how often each timed cell repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Reduced grid, one trial: what CI runs on every push.
    Smoke,
    /// The grid EXPERIMENTS.md records.
    Default,
    /// The nightly grid (deep seed sets, 50k-node tier).
    Full,
}

impl Tier {
    /// Every tier, in the order the command line names them.
    pub const ALL: [Tier; 3] = [Tier::Smoke, Tier::Default, Tier::Full];

    /// The word that selects this tier on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Smoke => "smoke",
            Tier::Default => "default",
            Tier::Full => "full",
        }
    }

    /// Trials per timed cell — a constant of the tier.
    #[must_use]
    pub fn trials(self) -> usize {
        match self {
            Tier::Smoke => 1,
            Tier::Default => 3,
            Tier::Full => 5,
        }
    }

    /// The seed set of this tier: the first fast seed, the fast set, or
    /// the deep set.
    #[must_use]
    pub fn seeds<'a>(self, fast: &'a [u64], deep: &'a [u64]) -> &'a [u64] {
        match self {
            Tier::Smoke => &fast[..1],
            Tier::Default => fast,
            Tier::Full => deep,
        }
    }
}

/// A column header and whether its values depend on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {
    /// Host-independent: must be equal across trials, hosts and reruns.
    Exact(&'static str),
    /// Read off the host clock: reported as median and quartiles.
    Timed(&'static str),
}

impl Col {
    /// The column header.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Col::Exact(n) | Col::Timed(n) => n,
        }
    }
}

/// All-exact columns from their headers.
#[must_use]
pub fn exact(headers: &[&'static str]) -> Vec<Col> {
    headers.iter().map(|h| Col::Exact(h)).collect()
}

/// Host-clock samples of one quantity, one per trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed {
    /// One sample per trial, in trial order.
    pub samples: Vec<f64>,
    /// Decimals both renderers print.
    pub decimals: usize,
}

impl Timed {
    /// `(q1, median, q3)` by linear interpolation between order statistics.
    #[must_use]
    pub fn quartiles(&self) -> (f64, f64, f64) {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let x = p * (s.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
        };
        (at(0.25), at(0.5), at(0.75))
    }

    /// Trial-by-trial ratio `self / base` (both measured in the same run).
    #[must_use]
    pub fn ratio(&self, base: &Timed, decimals: usize) -> Timed {
        Timed {
            samples: (self.samples.iter().zip(&base.samples))
                .map(|(a, b)| a / b)
                .collect(),
            decimals,
        }
    }
}

/// One table entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A host-independent value, already formatted.
    Exact(String),
    /// A host-clock quantity.
    Timed(Timed),
    /// The column does not apply to this row (either kind of column).
    Na,
}

/// An exact value.
#[must_use]
pub fn ex(x: impl ToString) -> Value {
    Value::Exact(x.to_string())
}

/// One trial's sample of a timed value.
#[must_use]
pub fn timed(sample: f64, decimals: usize) -> Value {
    Value::Timed(Timed {
        samples: vec![sample],
        decimals,
    })
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Exact(s) => f.pad(s),
            Value::Na => f.pad("-"),
            Value::Timed(t) => {
                let (q1, median, q3) = t.quartiles();
                let mut s = format!("{median:.*}", t.decimals);
                if t.samples.len() > 1 {
                    s.push_str(&format!(" ±{:.0}%", (q3 - q1) / median * 100.0));
                }
                f.pad(&s)
            }
        }
    }
}

/// A results table: the text EXPERIMENTS.md records and the JSON artifact
/// are two renderings of this one value.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (`e01` … `e20`, `kernel`): names the artifact.
    pub id: &'static str,
    /// The tier that produced the rows.
    pub tier: Tier,
    /// Experiment name, claim and fixed parameters, printed above the rows.
    pub title: String,
    /// Column headers and kinds.
    pub columns: Vec<Col>,
    /// Rows of entries, one per column.
    pub rows: Vec<Vec<Value>>,
    /// Table-wide values under their own names: verdicts and fingerprints
    /// of the whole run, timed primitives of the experiment.
    pub summary: Vec<(&'static str, Value)>,
}

impl Table {
    /// An empty table.
    #[must_use]
    pub fn new(id: &'static str, tier: Tier, title: impl Into<String>, columns: Vec<Col>) -> Self {
        Table {
            id,
            tier,
            title: title.into(),
            columns,
            rows: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Appends a measured row.
    ///
    /// # Panics
    ///
    /// Panics if an entry's kind is not its column's.
    pub fn push(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "{}: row width", self.id);
        for (col, v) in self.columns.iter().zip(&row) {
            let fits = matches!(
                (col, v),
                (_, Value::Na)
                    | (Col::Exact(_), Value::Exact(_))
                    | (Col::Timed(_), Value::Timed(_))
            );
            assert!(fits, "{}: column `{}` holds {v:?}", self.id, col.name());
        }
        self.rows.push(row);
    }

    /// Appends a row of exact values (virtual-time experiments).
    pub fn row(&mut self, cells: Vec<String>) {
        self.push(cells.into_iter().map(Value::Exact).collect());
    }

    /// Appends the row [`run_trials`] measures over this table's columns.
    pub fn trials(&mut self, cell: impl FnMut() -> Vec<Value>) {
        let names: Vec<&str> = self.columns.iter().map(|c| c.name()).collect();
        self.push(run_trials(self.tier, &names, cell));
    }

    /// Records a table-wide value.
    pub fn note(&mut self, name: &'static str, value: Value) {
        self.summary.push((name, value));
    }

    /// Records a table-wide timed primitive: ns per call of `f`, one
    /// sample of `iters` calls per trial after a warm-up of a tenth.
    pub fn note_ns_per_call<T>(
        &mut self,
        name: &'static str,
        iters: u64,
        mut f: impl FnMut() -> T,
    ) {
        let samples = (0..self.tier.trials())
            .map(|_| ns_per_call(iters, &mut f))
            .collect();
        let timed = Timed {
            samples,
            decimals: 1,
        };
        self.note(name, Value::Timed(timed));
    }

    /// The text of the exact entry at (`row`, column `name`).
    ///
    /// # Panics
    ///
    /// Panics if there is no such exact entry.
    #[must_use]
    pub fn exact(&self, row: usize, name: &str) -> &str {
        let col = self.columns.iter().position(|c| c.name() == name);
        match col.map(|c| &self.rows[row][c]) {
            Some(Value::Exact(s)) => s,
            other => panic!("{}: no exact `{name}` in row {row}: {other:?}", self.id),
        }
    }

    /// Renders the artifact: parameters, host fingerprint, one object per
    /// row keyed by column header, the table-wide values.
    #[must_use]
    pub fn to_json(&self) -> String {
        let object = |entries: Vec<(&str, &Value)>| {
            let fields: Vec<String> = (entries.iter())
                .map(|(k, v)| format!("{}: {}", quoted(k), json_value(v)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        let rows: Vec<String> = (self.rows.iter())
            .map(|r| object(self.columns.iter().map(|c| c.name()).zip(r).collect()))
            .collect();
        format!(
            "{{\n  \"experiment\": {},\n  \"title\": {},\n  \"tier\": {},\n  \
             \"trials\": {},\n  \"host\": {},\n  \"rows\": [\n    {}\n  ],\n  \
             \"summary\": {}\n}}\n",
            quoted(self.id),
            quoted(&self.title),
            quoted(self.tier.name()),
            self.tier.trials(),
            host_json(),
            rows.join(",\n    "),
            object(self.summary.iter().map(|(k, v)| (*k, v)).collect()),
        )
    }

    /// Every exact value of this table that `committed` (an artifact
    /// written by [`Table::to_json`]) records differently, as
    /// `where: committed → this` lines; empty when nothing moved. Timed
    /// values and the host fingerprint are not compared.
    #[must_use]
    pub fn exact_drift(&self, committed: &str) -> Vec<String> {
        let old = match Json::parse(committed) {
            Ok(old) => old,
            Err(e) => return vec![format!("artifact does not parse: {e}")],
        };
        let mut drift = Vec::new();
        let mut check = |place: String, was: Option<&Json>, now: &str| {
            let was = was.map_or("(absent)", Json::text);
            if was != now {
                drift.push(format!("{place}: {was} → {now}"));
            }
        };
        check("experiment".into(), old.get("experiment"), self.id);
        check("tier".into(), old.get("tier"), self.tier.name());
        check("title".into(), old.get("title"), &self.title);
        let old_rows = old.get("rows").map_or(&[][..], Json::items);
        check(
            "rows".into(),
            Some(&Json::Scalar(old_rows.len().to_string())),
            &self.rows.len().to_string(),
        );
        for (i, (row, was)) in self.rows.iter().zip(old_rows).enumerate() {
            for (col, v) in self.columns.iter().zip(row) {
                if let Col::Exact(name) = col {
                    check(format!("row {i} `{name}`"), was.get(name), &v.to_string());
                }
            }
        }
        for (name, v) in &self.summary {
            if !matches!(v, Value::Timed(_)) {
                let was = old.get("summary").and_then(|s| s.get(name));
                check(format!("summary `{name}`"), was, &v.to_string());
            }
        }
        drift
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header = self.columns.iter().map(|c| c.name().to_owned()).collect();
        let rows = self.rows.iter();
        let lines: Vec<Vec<String>> = std::iter::once(header)
            .chain(rows.map(|r| r.iter().map(Value::to_string).collect()))
            .collect();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| {
                lines
                    .iter()
                    .map(|l| l[i].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        writeln!(f, "\n=== {} ===", self.title)?;
        for (n, line) in lines.iter().enumerate() {
            let padded: Vec<String> = (line.iter().zip(&widths))
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let padded = padded.join("  ");
            writeln!(f, "{padded}")?;
            if n == 0 {
                writeln!(f, "{}", "-".repeat(padded.chars().count()))?;
            }
        }
        for (name, v) in &self.summary {
            writeln!(f, "{name}: {v}")?;
        }
        Ok(())
    }
}

/// Runs `cell` once per trial of the tier and returns its entries, called
/// `names` in order: exact entries must agree across trials, timed
/// entries keep every sample.
///
/// # Panics
///
/// Panics, naming the entry, if an exact entry differs between trials.
pub fn run_trials(tier: Tier, names: &[&str], mut cell: impl FnMut() -> Vec<Value>) -> Vec<Value> {
    let mut row = cell();
    for _ in 1..tier.trials() {
        for ((have, new), name) in row.iter_mut().zip(cell()).zip(names) {
            match (have, new) {
                (Value::Timed(h), Value::Timed(n)) => h.samples.extend(n.samples),
                (have, new) => assert!(
                    *have == new,
                    "exact column `{name}` differs between trials: {have} vs {new}"
                ),
            }
        }
    }
    row
}

/// Mean ns per call of `f` over `iters` calls, after a warm-up of a tenth.
pub fn ns_per_call<T>(iters: u64, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..iters / 10 {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out + "\""
}

/// Whether `s` is a JSON number as written (sign, digits, one fraction).
fn is_json_number(s: &str) -> bool {
    let digits = |p: &str| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit());
    let s = s.strip_prefix('-').unwrap_or(s);
    let (int, frac) = s.split_once('.').map_or((s, None), |(i, f)| (i, Some(f)));
    digits(int) && (int == "0" || !int.starts_with('0')) && frac.is_none_or(digits)
}

/// Exact text goes out bare when it is a JSON number or boolean, so
/// counts stay numbers in the artifact; everything else is a string.
/// `null` stands for [`Value::Na`] and reads back as its text, `-`.
fn json_value(v: &Value) -> String {
    match v {
        Value::Na => "null".to_owned(),
        Value::Exact(s) if is_json_number(s) || s == "true" || s == "false" => s.clone(),
        Value::Exact(s) => quoted(s),
        Value::Timed(t) => {
            let (q1, median, q3) = t.quartiles();
            let d = t.decimals;
            format!(
                "{{\"median\": {median:.d$}, \"q1\": {q1:.d$}, \"q3\": {q3:.d$}, \"n\": {}}}",
                t.samples.len()
            )
        }
    }
}

/// Where and how the artifact was measured; `unknown` for anything the
/// host does not tell.
fn host_json() -> String {
    let first_line = |program: &str, args: &[&str]| {
        let out = Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output();
        out.ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_owned))
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        let model = s.lines().find(|l| l.starts_with("model name"))?;
        Some(model.split(':').nth(1)?.trim().to_owned())
    });
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"profile\": \"{}\", \"git\": {}}}",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        quoted(cpu.as_deref().unwrap_or("unknown")),
        quoted(&first_line("rustc", &["-V"])),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        quoted(&first_line("git", &["describe", "--always", "--dirty"])),
    )
}

/// A parsed artifact. Numbers, booleans, `null` and strings all compare
/// as text, so one scalar variant holds them.
#[derive(Debug)]
enum Json {
    Scalar(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut rest = text.trim_start();
        let value = Json::value(&mut rest)?;
        if rest.trim_start().is_empty() {
            Ok(value)
        } else {
            Err(format!("trailing text `{:.20}`", rest.trim_start()))
        }
    }

    fn value(rest: &mut &str) -> Result<Json, String> {
        let close = match rest.chars().next() {
            Some('{') => '}',
            Some('[') => ']',
            Some('"') => return Json::string(rest).map(Json::Scalar),
            _ => {
                let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
                let (word, tail) = rest.split_at(end);
                *rest = tail;
                return match word.trim() {
                    "" => Err("value expected".to_owned()),
                    "null" => Ok(Json::Scalar(Value::Na.to_string())),
                    w => Ok(Json::Scalar(w.to_owned())),
                };
            }
        };
        let mut items = Vec::new();
        let mut fields = Vec::new();
        *rest = rest[1..].trim_start();
        while !rest.starts_with(close) {
            if close == '}' {
                let key = Json::string(rest)?;
                *rest = rest.trim_start().strip_prefix(':').ok_or("`:` expected")?;
                *rest = rest.trim_start();
                fields.push((key, Json::value(rest)?));
            } else {
                items.push(Json::value(rest)?);
            }
            *rest = rest.trim_start();
            match rest.strip_prefix(',') {
                Some(tail) => *rest = tail.trim_start(),
                None if rest.starts_with(close) => {}
                None => return Err(format!("`,` or `{close}` expected at `{rest:.20}`")),
            }
        }
        *rest = &rest[1..];
        Ok(if close == '}' {
            Json::Object(fields)
        } else {
            Json::Array(items)
        })
    }

    fn string(rest: &mut &str) -> Result<String, String> {
        let mut chars = rest.strip_prefix('"').ok_or("string expected")?.chars();
        let mut out = String::new();
        loop {
            match chars.next().ok_or("unterminated string")? {
                '"' => break,
                '\\' => match chars.next().ok_or("unterminated escape")? {
                    'n' => out.push('\n'),
                    c => out.push(c),
                },
                c => out.push(c),
            }
        }
        *rest = chars.as_str();
        Ok(out)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => &[],
        }
    }

    fn text(&self) -> &str {
        match self {
            Json::Scalar(s) => s,
            Json::Array(_) | Json::Object(_) => "(not a scalar)",
        }
    }
}

/// Formats a float with 2 decimals.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with 1 decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(tier: Tier, fingerprint: &str) -> Table {
        let mut t = Table::new(
            "e00",
            tier,
            "E0 \"demo\"",
            vec![Col::Exact("case"), Col::Exact("fp"), Col::Timed("ev/s")],
        );
        let mut sample = 0.0;
        t.trials(|| {
            sample += 100.0;
            vec![ex("much-longer-case"), ex(fingerprint), timed(sample, 0)]
        });
        t.push(vec![ex(7), Value::Na, Value::Na]);
        t.note("verdict", ex("clean"));
        t.note_ns_per_call("noop ns", 10, || 1);
        t
    }

    #[test]
    fn table_renders_aligned_with_spread() {
        let s = demo(Tier::Default, "0xab").to_string();
        assert!(s.contains("=== E0 \"demo\" ==="));
        assert!(s.contains("much-longer-case  0xab  200 ±50%"), "{s}");
        assert!(s.contains("               7     -         -"), "{s}");
        assert!(s.contains("verdict: clean"));
        // One trial: no spread to print, and the artifact says n = 1.
        let smoke = demo(Tier::Smoke, "0xab");
        assert!(smoke.to_string().contains("0xab   100\n"), "{smoke}");
        assert!(smoke.to_json().contains("\"q3\": 100, \"n\": 1}"));
    }

    #[test]
    fn artifact_is_well_formed_and_carries_host_and_dispersion() {
        let json = demo(Tier::Default, "0xab").to_json();
        let parsed = Json::parse(&json).expect("writer output parses");
        assert_eq!(parsed.get("experiment").unwrap().text(), "e00");
        assert_eq!(parsed.get("title").unwrap().text(), "E0 \"demo\"");
        assert_eq!(parsed.get("trials").unwrap().text(), "3");
        for key in ["nproc", "cpu", "rustc", "profile", "git"] {
            assert!(parsed.get("host").unwrap().get(key).is_some(), "host.{key}");
        }
        let rows = parsed.get("rows").unwrap().items();
        assert_eq!(rows[0].get("fp").unwrap().text(), "0xab");
        assert!(
            json.contains("\"case\": 7, \"fp\": null"),
            "counts stay numbers"
        );
        let spread = rows[0].get("ev/s").unwrap();
        for (key, want) in [("median", "200"), ("q1", "150"), ("q3", "250"), ("n", "3")] {
            assert_eq!(spread.get(key).unwrap().text(), want, "{key}");
        }
        assert!(parsed.get("summary").unwrap().get("noop ns").is_some());
    }

    #[test]
    #[should_panic(expected = "exact column `events` differs between trials: 1 vs 2")]
    fn exact_column_that_differs_between_trials_panics_naming_it() {
        let mut t = Table::new("e00", Tier::Default, "t", vec![Col::Exact("events")]);
        let mut n = 0;
        t.trials(|| {
            n += 1;
            vec![ex(n)]
        });
    }

    #[test]
    fn exact_drift_is_empty_on_a_rerun_and_names_a_flipped_fingerprint_digit() {
        let committed = demo(Tier::Default, "0xa8319bee3cd6a519").to_json();
        // Timed samples differ between the two runs; exact values do not.
        assert_eq!(
            demo(Tier::Default, "0xa8319bee3cd6a519").exact_drift(&committed),
            Vec::<String>::new()
        );
        assert_eq!(
            demo(Tier::Default, "0xa8319bee3cd6a518").exact_drift(&committed),
            ["row 0 `fp`: 0xa8319bee3cd6a519 → 0xa8319bee3cd6a518"]
        );
        let smoke = demo(Tier::Smoke, "0xa8319bee3cd6a519").exact_drift(&committed);
        assert_eq!(smoke, ["tier: default → smoke"]);
        let mut more = demo(Tier::Default, "0xa8319bee3cd6a519");
        more.push(vec![ex("x"), ex("y"), Value::Na]);
        assert_eq!(more.exact_drift(&committed), ["rows: 2 → 3"]);
        more.summary[0].1 = ex("DIRTY");
        assert!(more
            .exact_drift(&committed)
            .contains(&"summary `verdict`: clean → DIRTY".to_owned()));
        assert!(more.exact_drift("{\"rows\": [")[0].starts_with("artifact does not parse"));
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.5), "50.0%");
    }
}
