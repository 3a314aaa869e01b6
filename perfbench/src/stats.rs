//! Order statistics and the metric list printed as the result line.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metrics in the order they were recorded.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// The JSON object body: `"name": {"value": v, "unit": "u"}, …`.
    /// Every value must be finite; the caller checks [`Metrics::all_finite`].
    pub fn to_json(&self) -> String {
        self.0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|m| m.value.is_finite())
    }

    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|m| format!("  {:<34} {:>18.6} {}\n", m.name, m.value, m.unit))
            .collect()
    }
}
