//! The run's printed result: readable lines, then one JSON object as
//! the last line of standard output.

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Raw samples behind the figure, where it has any.
    pub samples: Option<usize>,
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any one makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Printed for reading, never part of the result object.
    pub notes: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64) -> Report {
        Report {
            workload,
            seed,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.note_owned(name.to_string(), value, unit, samples);
    }

    pub fn note_owned(
        &mut self,
        name: String,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        self.notes.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.attempted > 0
    }

    /// Prints the readable lines and the final JSON line.
    pub fn print(&self) {
        println!(
            "workload {} seed {}: attempted {}, succeeded {}, failed {}",
            self.workload,
            self.seed,
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
        for m in &self.metrics {
            println!(
                "  {:<34} {:>16.4} {:<6} {}",
                m.name,
                m.value,
                m.unit,
                count(m.samples)
            );
        }
        for m in &self.notes {
            println!(
                "  {:<34} {:>16.4} {:<6} {} (reported, not gated)",
                m.name,
                m.value,
                m.unit,
                count(m.samples)
            );
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn count(samples: Option<usize>) -> String {
    samples.map_or(String::new(), |n| format!("(n={n})"))
}

/// Every digit of the value; JSON has no NaN or infinity, so those
/// print as `null` (and make the run unusable rather than wrong).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
