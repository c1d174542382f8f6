//! `table4`: the paper's offline loop for each of the 23 Table-1 scenarios,
//! through the image the way the CLI drives it — instrument, check,
//! profile, accumulate, analyze for 10BaseT, realize, then run the Coign
//! and the default distribution.

use crate::probe::Recorder;
use crate::{Pass, Workload, PROFILE_SAMPLES, PROFILE_SEED};
use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::runtime::{choose_distribution, profile_scenario, run_default, run_distributed};
use coign::{rewriter, Application};
use coign_apps::scenarios::{all_scenarios, app_by_name};
use coign_com::AppImage;
use coign_dcom::{NetworkModel, NetworkProfile};
use std::sync::Arc;

/// Share by which a scenario's Coign communication may exceed the
/// default's before the run fails: about 8 times the largest loss seen
/// from transport jitter alone (0.13%).
const JITTER_MARGIN: f64 = 0.01;

pub struct Table4 {
    /// Each Table-1 scenario with its application.
    scenarios: Vec<(&'static str, Arc<dyn Application>)>,
    network: NetworkProfile,
    seed: u64,
}

/// Stores and reloads an image, as the CLI does between commands, and
/// checks that the image and its bytes survive the round trip unchanged.
fn store_and_load(
    rec: &mut Recorder,
    image: &AppImage,
    bytes: &mut u64,
) -> Result<AppImage, String> {
    let (encoded, decoded) = rec.layer("codec", || {
        let encoded = image.encode();
        let decoded = AppImage::decode(&encoded).map(|d| {
            let reencoded = d.encode();
            (d, reencoded)
        });
        (encoded, decoded)
    });
    *bytes += encoded.len() as u64;
    let (decoded, reencoded) =
        decoded.map_err(|e| format!("image {} does not decode: {e}", image.name))?;
    if decoded != *image || reencoded != encoded {
        return Err(format!("image {} changed across encode/decode", image.name));
    }
    Ok(decoded)
}

/// FNV-1a of a scenario name: each scenario's transport seed differs.
fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Table4 {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let scenarios = all_scenarios()
            .iter()
            .map(|s| {
                app_by_name(s.app)
                    .map(|app| (s.name, app))
                    .ok_or(format!("no application `{}`", s.app))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let network = NetworkProfile::measure(
            &NetworkModel::ethernet_10baset(),
            PROFILE_SAMPLES,
            PROFILE_SEED,
        );
        let mut table4 = Table4 {
            scenarios,
            network,
            seed,
        };
        // Warm-up: the first pass pays for lazily built tables and the
        // allocator's growth; users of a long-lived process pay it once.
        table4.pass(&mut Recorder::new(false))?;
        Ok(table4)
    }
}

/// Counters summed over one pass.
#[derive(Default)]
struct Sums {
    codec_bytes: u64,
    calls: u64,
    messages: u64,
    hits: u64,
    misses: u64,
    classifications: u64,
    graph_edges: u64,
    cross_machine_calls: u64,
    coign_comm_us: u64,
    default_comm_us: u64,
    /// Scenarios whose Coign communication exceeds the default's.
    coign_worse: u64,
}

impl Workload for Table4 {
    fn throughput_name(&self) -> &'static str {
        "scenarios_per_s"
    }

    fn pass(&mut self, rec: &mut Recorder) -> Result<Pass, String> {
        let mut sums = Sums::default();
        let min_cuts_before = coign_flow::min_cut_invocations();
        for (op, (scenario, app)) in self.scenarios.iter().enumerate() {
            rec.set_op(op as u64);
            let app = app.as_ref();
            let fail = |what: &str, e: &dyn std::fmt::Display| format!("{scenario}: {what}: {e}");

            // `coign instrument`, then `coign check`.
            let image = rec.layer("rewriter", || {
                let mut image = app.image();
                rewriter::instrument(&mut image, &InstanceClassifier::new(ClassifierKind::Ifcb));
                image
            });
            let image = store_and_load(rec, &image, &mut sums.codec_bytes)?;
            let lint = rec.layer("lint", || coign::lint::check_app_image(&image, app));
            if lint.has_errors() {
                return Err(format!("{scenario}: check failed\n{}", lint.render_human()));
            }

            // `coign profile`.
            let mut image = image;
            let record = rec
                .layer("rewriter", || rewriter::read_config(&image))
                .map_err(|e| fail("read config", &e))?;
            let classifier = Arc::new(
                InstanceClassifier::decode(&record.classifier)
                    .map_err(|e| fail("decode classifier", &e))?,
            );
            let run = rec
                .layer("profile", || profile_scenario(app, scenario, &classifier))
                .map_err(|e| fail("profile", &e))?;
            sums.calls += run.report.stats.calls;
            sums.messages += run.profile.total_messages();
            sums.hits += run.report.marshal_cache_hits;
            sums.misses += run.report.marshal_cache_misses;
            sums.classifications += u64::from(classifier.classification_count());
            rec.layer("rewriter", || {
                rewriter::accumulate_profile(&mut image, &run.profile)?;
                let mut record = rewriter::read_config(&image)?;
                record.classifier = classifier.encode();
                image.set_config_record(record.encode());
                Ok::<_, coign_com::ComError>(())
            })
            .map_err(|e| fail("accumulate profile", &e))?;
            let mut image = store_and_load(rec, &image, &mut sums.codec_bytes)?;

            // `coign analyze <image> ethernet`.
            let record = rec
                .layer("rewriter", || rewriter::read_config(&image))
                .map_err(|e| fail("read config", &e))?;
            sums.graph_edges += record.profile.edges.len() as u64;
            let distribution = rec
                .layer("analysis", || {
                    choose_distribution(app, &record.profile, &self.network)
                })
                .map_err(|e| fail("analyze", &e))?;
            rec.layer("rewriter", || {
                let classifier = InstanceClassifier::decode(&record.classifier)?;
                rewriter::realize(&mut image, &classifier, &distribution)
            })
            .map_err(|e| fail("realize", &e))?;
            let image = store_and_load(rec, &image, &mut sums.codec_bytes)?;

            // `coign run`, against the default distribution on the same
            // transport seed.
            let record = rec
                .layer("rewriter", || rewriter::read_config(&image))
                .map_err(|e| fail("read config", &e))?;
            if record.distribution.as_ref() != Some(&distribution) {
                return Err(format!(
                    "{scenario}: the realized record does not decode to the chosen distribution"
                ));
            }
            let classifier = Arc::new(
                InstanceClassifier::decode(&record.classifier)
                    .map_err(|e| fail("decode classifier", &e))?,
            );
            let net = NetworkModel::ethernet_10baset();
            let seed = self.seed ^ name_hash(scenario);
            let coign = rec
                .layer("run", || {
                    run_distributed(app, scenario, &classifier, &distribution, net.clone(), seed)
                })
                .map_err(|e| fail("run Coign distribution", &e))?;
            let default = rec
                .layer("run", || run_default(app, scenario, net, seed))
                .map_err(|e| fail("run default distribution", &e))?;
            // Transport jitter draws land on different messages once the
            // placements differ, so a scenario whose Coign distribution
            // saves little can come out slightly worse than the default
            // (o_oldtb0 on 3 of 40 seeds, by at most 0.13%). Such scenarios
            // are counted; only a loss beyond [`JITTER_MARGIN`] fails the
            // run.
            let (c, d) = (coign.stats.comm_us, default.stats.comm_us);
            if c as f64 > d as f64 * (1.0 + JITTER_MARGIN) {
                return Err(format!(
                    "{scenario}: Coign communication {c} us exceeds the default's {d} us"
                ));
            }
            sums.coign_worse += u64::from(c > d);
            sums.cross_machine_calls += coign.stats.cross_machine_calls;
            sums.coign_comm_us += coign.stats.comm_us;
            sums.default_comm_us += default.stats.comm_us;
        }
        let min_cuts = coign_flow::min_cut_invocations() - min_cuts_before;
        let s = &sums;
        if s.coign_comm_us > s.default_comm_us {
            return Err(format!(
                "Coign communication {} us exceeds the default's {} us over the suite",
                s.coign_comm_us, s.default_comm_us
            ));
        }
        let (coign_ms, default_ms) = (s.coign_comm_us as f64 / 1e3, s.default_comm_us as f64 / 1e3);
        Ok(Pass {
            ops: self.scenarios.len() as u64,
            values: vec![
                ("sim_cost_ms", coign_ms),
                ("comm_saving", 1.0 - coign_ms / default_ms),
                ("codec.bytes", s.codec_bytes as f64),
                ("profile.calls", s.calls as f64),
                ("profile.messages", s.messages as f64),
                ("marshal.cache_hits", s.hits as f64),
                ("marshal.cache_misses", s.misses as f64),
                (
                    "marshal.hit_rate",
                    s.hits as f64 / (s.hits + s.misses).max(1) as f64,
                ),
                ("classifier.classifications", s.classifications as f64),
                ("analysis.graph_edges", s.graph_edges as f64),
                ("flow.min_cuts", min_cuts as f64),
                ("run.cross_machine_calls", s.cross_machine_calls as f64),
                ("run.sim_comm_ms", coign_ms),
                ("run.sim_default_comm_ms", default_ms),
                ("run.coign_worse_scenarios", s.coign_worse as f64),
            ],
        })
    }
}
