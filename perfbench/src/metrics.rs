//! Named metrics with units, and the result line the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Dist;

/// Every number a run measured, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
    /// Free-text lines explaining what was measured (sizes, sample counts,
    /// which percentile a tail is).
    pub notes: Vec<String>,
}

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    /// Records `<stem>_p50` and `<stem>_tail` in milliseconds, plus a note
    /// naming the tail percentile and the sample count.
    pub fn put_dist_ms(&mut self, stem: &str, d: &Dist) {
        self.put(format!("{stem}_p50"), d.p50, "ms");
        self.put(format!("{stem}_tail"), d.tail, "ms");
        self.notes.push(format!("{stem}: tail = p{} of {} samples", d.tail_pct, d.n));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Records `name` as a copy of the metric `of` (when measured), with a
    /// note saying which.
    pub fn alias(&mut self, name: &str, of: &str) {
        if let Some(&v) = self.values.get(of) {
            self.values.insert(name.into(), v);
            self.notes.push(format!("{name} = {of}"));
        }
    }

    /// Every metric and note as one JSON object (non-finite values as
    /// `null`), for the traced run's output file.
    pub fn dump_json(&self) -> String {
        let mut out = String::from("{\"metrics\": {");
        for (i, (name, (value, unit))) in self.values.iter().enumerate() {
            let value = if value.is_finite() { value.to_string() } else { "null".into() };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}, \"notes\": [");
        for (i, note) in self.notes.iter().enumerate() {
            let note = note.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(out, "{}\"{note}\"", if i == 0 { "" } else { ", " });
        }
        out.push_str("]}");
        out
    }

    /// One `name value unit` line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, (value, unit)) in &self.values {
            let _ = writeln!(out, "metric {name} {value} {unit}");
        }
        out
    }

    /// The result line: `names` in order (each must have been recorded),
    /// with the attempted/failed operation counts.
    ///
    /// # Errors
    ///
    /// Names the first metric that was not measured.
    pub fn result_json(
        &self,
        names: &[&str],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut body = String::new();
        for (i, name) in names.iter().enumerate() {
            let (value, unit) =
                self.values.get(*name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let _ = write!(
                body,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{body}}}}}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_requested_metrics_in_order() {
        let mut m = Metrics::default();
        m.put("b", 2.5, "ms");
        m.put("a", 1.0, "s");
        let line = m.result_json(&["b", "a"], true, 3, 0).expect("all measured");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"b\": {\"value\": 2.5, \"unit\": \"ms\"}, \"a\": {\"value\": 1, \"unit\": \"s\"}}}"
        );
        assert!(m.result_json(&["c"], true, 1, 0).is_err());
        m.put("c", f64::NAN, "ratio");
        assert!(m.result_json(&["c"], true, 1, 0).is_err());
    }

    #[test]
    fn dump_writes_non_finite_as_null_and_escapes_notes() {
        let mut m = Metrics::default();
        m.put("x", f64::NAN, "ms");
        m.notes.push("say \"hi\"".into());
        assert_eq!(
            m.dump_json(),
            "{\"metrics\": {\"x\": {\"value\": null, \"unit\": \"ms\"}}, \"notes\": [\"say \\\"hi\\\"\"]}"
        );
    }
}
