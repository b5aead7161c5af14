//! Invariant verdicts: what every experiment hands back, and the one
//! route that turns them into `reproduce`'s exit status.

/// One named invariant a run asserted.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantCheck {
    /// Short invariant name (`exposure_le_mask`, `planner_cuts_cost`, ...).
    pub name: String,
    /// Human-readable evidence: what was compared and what was observed.
    pub detail: String,
    /// Whether the invariant held.
    pub pass: bool,
}

/// The invariant verdicts of one run: `pass` is the conjunction of
/// every [`InvariantCheck`].
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantBlock {
    /// `true` iff every check passed.
    pub pass: bool,
    /// The individual checks, in assertion order.
    pub checks: Vec<InvariantCheck>,
}

impl Default for InvariantBlock {
    fn default() -> Self {
        InvariantBlock {
            pass: true,
            checks: Vec::new(),
        }
    }
}

impl InvariantBlock {
    /// Records one check outcome and folds it into the block verdict.
    pub fn check(&mut self, name: impl Into<String>, detail: impl Into<String>, pass: bool) {
        self.pass &= pass;
        self.checks.push(InvariantCheck {
            name: name.into(),
            detail: detail.into(),
            pass,
        });
    }
}

/// The outcome of one gating run of an experiment.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The run's name (`fig3`, `audit`, `planner`, ...).
    pub name: String,
    /// Every invariant the run checked.
    pub invariants: InvariantBlock,
}

impl ScenarioReport {
    /// Closes a run: prints its PASS/FAIL line and wraps the block.
    pub fn close(name: &str, invariants: InvariantBlock) -> Self {
        let verdict = if invariants.pass { "PASS" } else { "FAIL" };
        println!(
            "  {name}: {verdict} ({} invariant check(s))",
            invariants.checks.len()
        );
        ScenarioReport {
            name: name.to_string(),
            invariants,
        }
    }
}

/// The verdict route: the process exit status for `reports` — 0 when
/// every check of every run passed, 1 otherwise — and one
/// `run: FAILED name: detail` line per failed check.
pub fn exit_status(reports: &[ScenarioReport]) -> (i32, String) {
    let failed: String = reports
        .iter()
        .flat_map(|r| {
            r.invariants
                .checks
                .iter()
                .filter(|c| !c.pass)
                .map(move |c| format!("{}: FAILED {}: {}\n", r.name, c.name, c.detail))
        })
        .collect();
    (i32::from(!failed.is_empty()), failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_is_a_nonzero_status_and_a_rendered_line() {
        let mut green = InvariantBlock::default();
        green.check("sane", "3 samples recorded", true);
        let mut red = green.clone();
        red.check("balanced", "imbalance 2.0 > 1.5", false);
        red.check("drained", "64 of 64", true);

        let all_pass = [ScenarioReport::close("churn", green.clone())];
        assert_eq!(exit_status(&all_pass), (0, String::new()));
        assert_eq!(exit_status(&[]), (0, String::new()));

        let one_red = [
            ScenarioReport::close("churn", green),
            ScenarioReport::close("audit", red),
        ];
        assert!(!one_red[1].invariants.pass);
        assert_eq!(
            exit_status(&one_red),
            (
                1,
                "audit: FAILED balanced: imbalance 2.0 > 1.5\n".to_string()
            )
        );
    }
}
