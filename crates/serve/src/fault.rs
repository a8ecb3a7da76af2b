//! Deterministic fault injection for the serving stack.
//!
//! Chaos testing a dispatcher is only useful when the chaos replays: a
//! fault that fires at a different tick on every run cannot participate in
//! the kill-and-recover equivalence proofs the serve layer makes
//! (`rideshare-serve`'s recovery property requires the *recovered* run to
//! observe exactly the faults the uninterrupted run would have). A
//! [`FaultPlan`] therefore carries no mutable RNG state at all: every
//! decision is a pure function of `(seed, fault domain, tick index)`, so
//! the schedule is identical no matter how often, in which order, or from
//! which resumed process the plan is consulted.
//!
//! The plan covers the two failure classes the serve path injects —
//! oracle latency spikes (charged to dispatch-tick compute) and torn
//! checkpoint writes (a crash between temp-file write and rename) — plus
//! the process kill itself (`kill_at_tick`), which the recoverable serve
//! loop turns into an abrupt return with no drain and no cleanup.

/// The independent decision streams of a [`FaultPlan`]. Each domain hashes
/// with a distinct constant so, e.g., an oracle spike at tick 17 says
/// nothing about a torn write at index 17. The constants are part of every
/// schedule: changing one moves that domain's faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Domain {
    OracleSpike = 1,
    TornCheckpoint = 3,
}

/// A seeded, stateless schedule of injectable faults.
///
/// All probabilities are per-consultation (per dispatch tick for spikes,
/// per checkpoint write for torn writes) and decided by hashing
/// `(seed, domain, index)` — see the module docs for why statelessness
/// matters. The zero plan ([`FaultPlan::none`], also `Default`) injects
/// nothing and is what every non-chaos caller uses.
///
/// ```
/// use rideshare_serve::fault::FaultPlan;
///
/// let plan = FaultPlan { oracle_spike_rate: 0.5, ..FaultPlan::none() }.with_seed(7);
/// // Decisions are a pure function of the tick: any replay agrees.
/// for tick in 0..100 {
///     assert_eq!(plan.oracle_spike(tick), plan.oracle_spike(tick));
/// }
/// let fired = (0..1000).filter(|&t| plan.oracle_spike(t).is_some()).count();
/// assert!(fired > 350 && fired < 650, "rate 0.5 must fire about half the time");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed separating this plan's schedule from every other plan's.
    pub seed: u64,
    /// Probability per dispatch tick of an oracle latency spike.
    pub oracle_spike_rate: f64,
    /// Extra compute seconds one spike charges to the tick.
    pub oracle_spike_seconds: f64,
    /// Probability per checkpoint write of a torn write: the temp file is
    /// written partially and never renamed, as if the process died mid-save.
    pub torn_checkpoint_rate: f64,
    /// Kill the serve process at this tick: the recoverable loop returns
    /// without draining, flushing or checkpointing, exactly like a crash.
    pub kill_at_tick: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Rejects a valueless clause for a key that requires `key=value`.
fn need<'a>(key: &str, v: Option<&'a str>) -> Result<&'a str, String> {
    v.ok_or_else(|| format!("fault clause {key:?} expects key=value"))
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of a 64-bit input.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan: nothing ever fires.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            oracle_spike_rate: 0.0,
            oracle_spike_seconds: 0.0,
            torn_checkpoint_rate: 0.0,
            kill_at_tick: None,
        }
    }

    /// True when no fault can ever fire under this plan.
    pub fn is_none(&self) -> bool {
        self.oracle_spike_rate <= 0.0
            && self.torn_checkpoint_rate <= 0.0
            && self.kill_at_tick.is_none()
    }

    /// Returns the plan with a different seed (builder-style convenience).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pure decision: does `domain` fire at `index` under `rate`?
    fn fires(&self, domain: Domain, index: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = mix(self.seed ^ mix(domain as u64) ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        // Map the hash to [0, 1) with 53 bits of precision.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    /// Extra compute seconds the oracle charges at this dispatch tick, if a
    /// latency spike fires.
    pub fn oracle_spike(&self, tick: u64) -> Option<f64> {
        self.fires(Domain::OracleSpike, tick, self.oracle_spike_rate)
            .then_some(self.oracle_spike_seconds)
    }

    /// Whether the `write_index`-th checkpoint write tears mid-save.
    pub fn torn_checkpoint(&self, write_index: u64) -> bool {
        self.fires(
            Domain::TornCheckpoint,
            write_index,
            self.torn_checkpoint_rate,
        )
    }

    /// Whether the process is killed at this tick.
    pub fn killed_at(&self, tick: u64) -> bool {
        self.kill_at_tick == Some(tick)
    }

    /// Parses the CLI spec: comma-separated `key=value` clauses, e.g.
    /// `seed=7,spike=0.1:2.5,torn=0.5,kill=120`.
    ///
    /// * `seed=<n>` — plan seed;
    /// * `spike=<rate>[:<seconds>]` — oracle spikes (default 2.0 s each);
    /// * `torn=<rate>` — torn checkpoint writes;
    /// * `kill=<tick>` — kill the process at that tick.
    ///
    /// A rate must lie in `[0, 1]` and spike seconds must be finite and
    /// non-negative; anything else is an error naming the clause. The
    /// empty string parses to [`FaultPlan::none`].
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            let (key, value) = match clause.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (clause, None),
            };
            let num = |v: &str| -> Result<f64, String> {
                v.parse()
                    .map_err(|_| format!("fault clause {key:?}: bad number {v:?}"))
            };
            let rate = |v: &str| match num(v)? {
                r if (0.0..=1.0).contains(&r) => Ok(r),
                _ => Err(format!("fault clause {key:?}: rate {v:?} is not in [0, 1]")),
            };
            match key {
                "seed" => {
                    plan.seed = need(key, value)?
                        .parse()
                        .map_err(|_| "bad seed".to_string())?
                }
                "spike" => {
                    let v = need(key, value)?;
                    let (r, secs) = match v.split_once(':') {
                        Some((r, s)) => (rate(r)?, num(s)?),
                        None => (rate(v)?, 2.0),
                    };
                    if !(secs.is_finite() && secs >= 0.0) {
                        return Err(format!(
                            "fault clause {key:?}: spike seconds {secs} must be finite and >= 0"
                        ));
                    }
                    plan.oracle_spike_rate = r;
                    plan.oracle_spike_seconds = secs;
                }
                "torn" => plan.torn_checkpoint_rate = rate(need(key, value)?)?,
                "kill" => {
                    plan.kill_at_tick = Some(
                        need(key, value)?
                            .parse()
                            .map_err(|_| "bad kill tick".to_string())?,
                    )
                }
                other => return Err(format!("unknown fault clause {other:?}")),
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for t in 0..1000 {
            assert!(plan.oracle_spike(t).is_none());
            assert!(!plan.torn_checkpoint(t));
            assert!(!plan.killed_at(t));
        }
    }

    #[test]
    fn decisions_are_stateless_and_seed_dependent() {
        let a = FaultPlan {
            oracle_spike_rate: 0.3,
            torn_checkpoint_rate: 0.3,
            ..FaultPlan::none()
        }
        .with_seed(1);
        let b = a.with_seed(2);
        // Same plan, any consultation order: identical decisions.
        let forward: Vec<bool> = (0..500).map(|t| a.torn_checkpoint(t)).collect();
        let backward: Vec<bool> = (0..500).rev().map(|t| a.torn_checkpoint(t)).collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "order of consultation must not matter"
        );
        // Different seeds give different schedules.
        assert_ne!(
            (0..500).map(|t| a.torn_checkpoint(t)).collect::<Vec<_>>(),
            (0..500).map(|t| b.torn_checkpoint(t)).collect::<Vec<_>>()
        );
        // Domains are independent streams.
        assert_ne!(
            (0..500)
                .map(|t| a.oracle_spike(t).is_some())
                .collect::<Vec<_>>(),
            (0..500).map(|t| a.torn_checkpoint(t)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rates_are_approximately_honoured_and_edges_are_exact() {
        let plan = FaultPlan {
            oracle_spike_rate: 0.1,
            oracle_spike_seconds: 1.5,
            ..FaultPlan::none()
        }
        .with_seed(99);
        let fired = (0..10_000)
            .filter(|&t| plan.oracle_spike(t) == Some(1.5))
            .count();
        assert!((700..1300).contains(&fired), "rate 0.1 fired {fired}/10000");
        let always = FaultPlan {
            torn_checkpoint_rate: 1.0,
            ..FaultPlan::none()
        };
        let never = FaultPlan {
            torn_checkpoint_rate: 0.0,
            ..FaultPlan::none()
        };
        for i in 0..100 {
            assert!(always.torn_checkpoint(i));
            assert!(!never.torn_checkpoint(i));
        }
    }

    #[test]
    fn parse_round_trips_the_documented_spec() {
        let plan = FaultPlan::parse("seed=7,spike=0.1:2.5,torn=0.5,kill=120").expect("valid spec");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.oracle_spike_rate, 0.1);
        assert_eq!(plan.oracle_spike_seconds, 2.5);
        assert_eq!(plan.torn_checkpoint_rate, 0.5);
        assert_eq!(plan.kill_at_tick, Some(120));

        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(
            FaultPlan::parse("spike=0.2").unwrap().oracle_spike_seconds,
            2.0,
            "spike seconds default"
        );
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert_eq!(
            FaultPlan::parse("sink=0.1").unwrap_err(),
            "unknown fault clause \"sink\""
        );
        assert!(FaultPlan::parse("spike=x").is_err());
        assert_eq!(
            FaultPlan::parse("store").unwrap_err(),
            "unknown fault clause \"store\""
        );
    }

    #[test]
    fn parse_refuses_out_of_range_numbers_naming_the_clause() {
        for spec in [
            "spike=nan",
            "spike=1.5:2",
            "spike=0.5:-3",
            "spike=0.5:inf",
            "torn=-1",
            "torn=2",
        ] {
            let key = spec.split('=').next().unwrap_or_default();
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(
                err.starts_with(&format!("fault clause {key:?}")),
                "{spec}: {err}"
            );
        }
        for edge in ["torn=0", "torn=1", "spike=1:0"] {
            assert!(FaultPlan::parse(edge).is_ok(), "{edge}");
        }
    }
}
