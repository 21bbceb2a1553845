//! Result lines: the one JSON object the driver reads, and the saved-run
//! lines `--compare` reads back.

use serde::Value;

use crate::spans::json_string;

/// One reported metric: its value and, for end-to-end metrics, the
/// per-window (or per-repetition) values the value is the median of.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The reported value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// What `value` is the median of (empty for per-layer metrics).
    pub windows: Vec<f64>,
}

fn number(x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(format!("{x}"))
    } else {
        Err(format!("a metric came out as {x}"))
    }
}

fn metrics_object(metrics: &[Metric], with_windows: bool) -> Result<String, String> {
    let fields = metrics
        .iter()
        .map(|m| {
            let mut body = format!(
                "\"value\": {}, \"unit\": {}",
                number(m.value)?,
                json_string(&m.unit)
            );
            if with_windows {
                let w: Vec<String> = m
                    .windows
                    .iter()
                    .map(|x| number(*x))
                    .collect::<Result<_, _>>()?;
                body.push_str(&format!(", \"windows\": [{}]", w.join(", ")));
            }
            Ok(format!("{}: {{{body}}}", json_string(&m.name)))
        })
        .collect::<Result<Vec<String>, String>>()?;
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics, false)?
    ))
}

/// One run as `--save` appends it.
#[derive(Clone, Debug, PartialEq)]
pub struct SavedRun {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Whether it was a traced run.
    pub trace: bool,
    /// Commit the run measured.
    pub rev: String,
    /// The metrics it printed.
    pub metrics: Vec<Metric>,
}

impl SavedRun {
    /// One JSON line.
    pub fn render(&self) -> Result<String, String> {
        Ok(format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"rev\": {}, \"metrics\": {}}}",
            json_string(&self.workload),
            self.seed,
            self.trace,
            json_string(&self.rev),
            metrics_object(&self.metrics, true)?
        ))
    }

    /// Parses one saved line.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("saved run: {e}"))?;
        let field = |name: &str| v.field(name).map_err(|e| format!("saved run: {e}"));
        let text = |name: &str| match field(name)? {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!("saved run: `{name}` is not a string")),
        };
        let Value::Object(metrics) = field("metrics")? else {
            return Err("saved run: `metrics` is not an object".into());
        };
        Ok(Self {
            workload: text("workload")?,
            seed: as_f64(field("seed")?)? as u64,
            trace: matches!(field("trace")?, Value::Bool(true)),
            rev: text("rev")?,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    let get = |k: &str| m.field(k).map_err(|e| format!("saved run: {e}"));
                    Ok(Metric {
                        name: name.clone(),
                        value: as_f64(get("value")?)?,
                        unit: match get("unit")? {
                            Value::Str(s) => s.clone(),
                            _ => return Err("saved run: unit is not a string".into()),
                        },
                        windows: match get("windows")? {
                            Value::Array(a) => a.iter().map(as_f64).collect::<Result<_, _>>()?,
                            _ => Vec::new(),
                        },
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

fn as_f64(v: &Value) -> Result<f64, String> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::UInt(u) => Ok(*u as f64),
        Value::Float(f) => Ok(*f),
        Value::Float32(f) => Ok(f64::from(*f)),
        other => Err(format!(
            "saved run: expected a number, found {}",
            other.kind()
        )),
    }
}
