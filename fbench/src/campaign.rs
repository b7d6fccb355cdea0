//! The `campaign_grid` workload: the paper's search loop over the default
//! 2 devices × 2 rewards × freezing on/off grid.
//!
//! The untraced run drives `CampaignEngine` in-process on a one-thread
//! pool, with the whole process pinned to one CPU: the pool's caller
//! thread helps run scenarios, so unpinned the grid's wall time depends on
//! how its eight unequal scenarios happen to split across two cores. The traced run rebuilds every scenario from the layers' public
//! parts — producer, space, controller, gate, latency table, cached
//! evaluator, reward, update — and must reproduce the engine's episode
//! histories bit for bit.

use std::path::Path;
use std::sync::Arc;

use archspace::backbone::{BackboneProducer, BackboneTemplate};
use archspace::{zoo, SearchSpace};
use dermsim::{Dataset, DermatologyGenerator};
use edgehw::{DeviceKind, DeviceProfile, SharedBlockLatencyTable};
use evaluator::{feature_variation_by_block, Evaluate, SurrogateEvaluator};
use fahana::{ControllerConfig, EpisodeRecord, EpisodeSample, FahanaConfig, RnnController};
use fahana_runtime::{
    CachedEvaluator, CampaignConfig, CampaignEngine, CampaignOutcome, CampaignReport, EvalCache,
};

use crate::output::RunResult;
use crate::stats::{median, quantile};
use crate::sys;
use crate::trace::{self, Tracer};

/// Episodes per scenario: enough that one grid takes a few seconds on one
/// core, few enough that a run measures several grids.
pub const EPISODES: usize = 60;

/// How many times set-up runs `fahana-campaign --canonical`; `setup_s`
/// is the median.
const SETUP_REPEATS: usize = 3;

/// The grid the workload runs for `seed`: the `fahana-campaign` default
/// grid on one thread.
pub fn grid_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        episodes: EPISODES,
        seed,
        threads: 1,
        ..CampaignConfig::default()
    }
}

/// The canonical `campaign.json` bytes of an outcome.
pub fn canonical_report(outcome: &CampaignOutcome) -> String {
    CampaignReport::from_outcome(outcome)
        .canonical()
        .to_json()
        .render()
}

/// Runs the workload. `work_dir` is scratch space inside the checkout;
/// `bin_dir` holds the release `fahana-campaign`.
///
/// Set-up produces what every grid is checked against: the canonical
/// `campaign.json` of `fahana-campaign --canonical`, run `SETUP_REPEATS`
/// times (the runs must agree byte for byte); `setup_s` is the median.
/// Each measured grid builds its `CampaignEngine` inside its timed
/// interval, so work moved from `run` into `new` still counts in `wall_s`.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    work_dir: &Path,
    bin_dir: &Path,
) -> Result<RunResult, String> {
    let config = grid_config(seed);
    let mut result = RunResult::default();
    let cpu = sys::first_allowed_cpu()?;
    sys::pin_to(cpu).map_err(|e| format!("cannot pin to CPU {cpu}: {e}"))?;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut reference = None;
    for round in 0..SETUP_REPEATS {
        let started = sys::now();
        let report = cli_report(seed, &work_dir.join(format!("cli-{round}")), bin_dir)?;
        setups.push(started.elapsed().as_secs_f64());
        result.attempted += 1;
        match &reference {
            None => reference = Some(report),
            Some(first) if *first != report => result.fail(format!(
                "`fahana-campaign --canonical` run {round} differs from run 0"
            )),
            Some(_) => {}
        }
    }
    let reference = reference.expect("at least one set-up");

    // measured phase: grids and their canonical render until the run's
    // time is used (at least three grids, traced or not, so the medians
    // and the tail mean something)
    let started = sys::now();
    let mut walls = Vec::new();
    let mut grid_medians_ms = Vec::new();
    let mut cells_ms = Vec::new();
    let mut last = None;
    let mut grids = 0;
    while grids < 3 || (!traced && started.elapsed().as_secs_f64() < seconds) {
        let grid_started = sys::now();
        let outcome = CampaignEngine::new(config.clone())
            .and_then(|engine| engine.run())
            .map_err(|e| e.to_string())?;
        let report = canonical_report(&outcome);
        walls.push(grid_started.elapsed().as_secs_f64());
        let cells: Vec<f64> = outcome
            .scenarios
            .iter()
            .map(|s| s.wall_clock.as_secs_f64() * 1e3)
            .collect();
        grid_medians_ms.push(median(&cells));
        cells_ms.extend(cells);
        result.attempted += 1;
        if report != reference {
            result.fail(format!(
                "grid {grids}: campaign.json differs from `fahana-campaign --canonical`"
            ));
        }
        last = Some(outcome);
        grids += 1;
    }
    let outcome = last.expect("at least one grid ran");

    let episodes = (config.episodes * config.scenario_count()) as f64;
    println!(
        "samples: setup_s is the median of {SETUP_REPEATS} set-ups; wall_s and p50_ms are \
         medians over {grids} grids; p99_ms is over {} scenario searches",
        cells_ms.len(),
    );
    result.metrics.set("setup_s", median(&setups));
    result.metrics.set("wall_s", median(&walls));
    // the grid's eight scenarios differ in cost, so the pooled median
    // would sit on the edge between two of them; the median of each
    // grid's own median does not
    result.metrics.set("p50_ms", median(&grid_medians_ms));
    result.metrics.set("p99_ms", quantile(&cells_ms, 0.99));
    // a stand-in: there are no reads here, so this is wall_s restated
    result.metrics.set("max_rps", episodes / median(&walls));
    result.metrics.set("peak_rss_mb", sys::peak_rss_mb(None)?);

    if traced {
        traced_replay(&config, &outcome, work_dir, &mut result)?;
    }
    Ok(result)
}

/// The canonical `campaign.json` of `fahana-campaign --canonical` for the
/// workload's seed and episodes, written under `out`: the bytes every
/// grid must reproduce.
fn cli_report(seed: u64, out: &Path, bin_dir: &Path) -> Result<String, String> {
    let status = std::process::Command::new(bin_dir.join("fahana-campaign"))
        .args(["--episodes", &EPISODES.to_string()])
        .args(["--seed", &seed.to_string()])
        .args(["--threads", "1", "--canonical", "--out"])
        .arg(out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run fahana-campaign: {e}"))?;
    if !status.success() {
        return Err(format!("fahana-campaign --canonical failed: {status}"));
    }
    let path = out.join("campaign.json");
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Replays the grid twice, untraced then traced, checks both against the
/// engine's histories and turns the traced spans into per-layer metrics.
fn traced_replay(
    config: &CampaignConfig,
    outcome: &CampaignOutcome,
    work_dir: &Path,
    result: &mut RunResult,
) -> Result<(), String> {
    let started = sys::now();
    let plain = replay_grid(config, outcome, &mut Tracer::new(false))?;
    let untraced_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut tracer = Tracer::new(true);
    let started = sys::now();
    let replay = replay_grid(config, outcome, &mut tracer)?;
    let traced_ms = started.elapsed().as_secs_f64() * 1e3;

    for (label, run) in [("untraced", &plain), ("traced", &replay)] {
        for (scenario, history) in outcome.scenarios.iter().zip(&run.histories) {
            result.attempted += 1;
            if let Some(diff) = first_mismatch(&scenario.outcome.history, history) {
                result.fail(format!(
                    "{label} replay of {} diverges from FahanaSearch: {diff}",
                    scenario.scenario.name
                ));
            }
        }
        if run.histories.len() != outcome.scenarios.len() {
            result.fail(format!("{label} replay ran the wrong number of scenarios"));
        }
    }

    let spans = tracer.spans();
    trace::check_nesting(spans)?;
    tracer
        .write_jsonl(&work_dir.join("trace.jsonl"))
        .map_err(|e| e.to_string())?;
    let ms = trace::self_ms_by_name(spans);
    let count = trace::counts_by_name(spans);
    let total = |name: &str| ms.get(name).copied().unwrap_or(0.0);
    let m = &mut result.metrics;
    m.set("controller.sample_ms", total("controller.sample"));
    m.set("controller.update_ms", total("controller.update"));
    m.set(
        "controller.updates",
        count.get("controller.update").copied().unwrap_or(0) as f64,
    );
    let replay_ms: f64 = ms.values().sum();
    m.set(
        "controller.share",
        (total("controller.sample") + total("controller.update")) / replay_ms,
    );
    m.set("archspace.instantiate_ms", total("archspace.instantiate"));
    m.set("archspace.malformed", replay.gate.malformed as f64);
    m.set("edgehw.lut_ms", total("edgehw.lut"));
    m.set("edgehw.lut_hit_ratio", replay.lut_hit_ratio);
    m.set("gate.sampled", replay.gate.sampled as f64);
    m.set("gate.over_latency", replay.gate.over_latency as f64);
    m.set("gate.over_storage", replay.gate.over_storage as f64);
    m.set(
        "gate.pass_ratio",
        replay.gate.evaluated as f64 / replay.gate.sampled.max(1) as f64,
    );
    m.set("evaluator.eval_ms", total("evaluator.eval"));
    m.set("cache.eval_hit_ratio", replay.cache_hit_ratio);
    m.set("cache.contended", replay.cache_contended as f64);
    m.set("setup.dataset_ms", total("setup.dataset"));
    m.set("setup.search_build_ms", total("setup.search_build"));
    m.set("report.render_ms", total("report.render"));
    m.set("trace.overhead_ms", traced_ms - untraced_ms);
    Ok(())
}

/// Hardware-gate outcome counts over a replayed grid.
#[derive(Debug, Default, Clone, Copy)]
pub struct GateCounts {
    pub sampled: u64,
    pub malformed: u64,
    pub over_latency: u64,
    pub over_storage: u64,
    pub evaluated: u64,
}

/// What a replay produced: one history per scenario, in grid order, plus
/// the counters its layers kept.
#[derive(Debug)]
pub struct GridReplay {
    pub histories: Vec<Vec<EpisodeRecord>>,
    pub gate: GateCounts,
    pub lut_hit_ratio: f64,
    pub cache_hit_ratio: f64,
    pub cache_contended: u64,
}

/// One scenario's search, assembled from the layers' public parts the way
/// `FahanaSearch::with_dataset` assembles it.
struct ScenarioParts {
    template: BackboneTemplate,
    space: SearchSpace,
    controller: RnnController,
    surrogate: SurrogateEvaluator,
    frozen_blocks: usize,
}

fn build_scenario(config: &FahanaConfig, dataset: &Dataset) -> Result<ScenarioParts, String> {
    let surrogate = SurrogateEvaluator::for_dataset(dataset, config.seed);
    let backbone = zoo::mobilenet_v2(config.classes, config.input_size);
    let producer = BackboneProducer::new(backbone.clone(), config.freeze_gamma);
    let (template, frozen_blocks) = if config.use_freezing {
        let variations = match &config.variation_profile {
            Some(profile) => profile.clone(),
            None => {
                feature_variation_by_block(&backbone, dataset, config.variation_batch, config.seed)
                    .map_err(|e| e.to_string())?
                    .per_block
            }
        };
        let template = producer.template(&producer.decide_split(&variations));
        let frozen = template.frozen_block_count();
        (template, frozen)
    } else {
        (producer.full_search_template(), 0)
    };
    let space = SearchSpace::new(config.space.clone(), template.searchable_slots());
    let controller = RnnController::new(
        space.decision_cardinalities(),
        ControllerConfig {
            seed: config.seed ^ 0x5eed,
            ..config.controller
        },
    )
    .map_err(|e| e.to_string())?;
    Ok(ScenarioParts {
        template,
        space,
        controller,
        surrogate,
        frozen_blocks,
    })
}

fn invalid_record(episode: usize) -> EpisodeRecord {
    EpisodeRecord {
        episode,
        name: format!("invalid-ep{episode}"),
        params: 0,
        storage_mb: 0.0,
        latency_ms: f64::INFINITY,
        accuracy: 0.0,
        unfairness: 0.0,
        trained_params: 0,
        reward: -1.0,
        valid: false,
    }
}

/// Replays every scenario of `config` on this thread, recording spans into
/// `tracer` (op 0 is the shared set-up, op `i + 1` scenario `i`, the last
/// op renders `outcome`'s canonical report).
pub fn replay_grid(
    config: &CampaignConfig,
    outcome: &CampaignOutcome,
    tracer: &mut Tracer,
) -> Result<GridReplay, String> {
    tracer.begin_op(0);
    let setup = tracer.enter("grid.setup");
    let dataset = tracer.span("setup.dataset", |_| {
        DermatologyGenerator::new(config.dataset_config()).generate()
    });
    tracer.exit(setup);

    let cache = Arc::new(EvalCache::new());
    let mut tables: Vec<(DeviceKind, SharedBlockLatencyTable)> = Vec::new();
    let mut gate = GateCounts::default();
    let mut histories = Vec::new();
    for (index, scenario) in config.expand().into_iter().enumerate() {
        tracer.begin_op(index as u64 + 1);
        let op = tracer.enter("scenario");
        let search = scenario.to_fahana_config(config);
        let table = match tables.iter().find(|(kind, _)| *kind == scenario.device) {
            Some((_, table)) => table.clone(),
            None => {
                let table = SharedBlockLatencyTable::new(DeviceProfile::for_kind(scenario.device));
                tables.push((scenario.device, table.clone()));
                table
            }
        };
        let mut parts = tracer.span("setup.search_build", |_| build_scenario(&search, &dataset))?;
        let mut evaluator = CachedEvaluator::surrogate(parts.surrogate.clone(), Arc::clone(&cache));
        histories.push(replay_search(
            &search,
            &mut parts,
            &table,
            &mut evaluator,
            &mut gate,
            tracer,
        )?);
        tracer.exit(op);
    }

    tracer.begin_op(config.scenario_count() as u64 + 1);
    let op = tracer.enter("report");
    std::hint::black_box(tracer.span("report.render", |_| canonical_report(outcome)));
    tracer.exit(op);

    let (hits, misses) = tables.iter().fold((0, 0), |(h, m), (_, table)| {
        let (th, tm) = table.hit_miss();
        (h + th, m + tm)
    });
    Ok(GridReplay {
        histories,
        gate,
        lut_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        cache_hit_ratio: cache.stats().hit_rate(),
        cache_contended: cache.contended(),
    })
}

/// The chunked loop of `FahanaSearch::run_with_batch_evaluator`: sample a
/// chunk, gate it, evaluate the survivors in order, score, update.
fn replay_search(
    config: &FahanaConfig,
    parts: &mut ScenarioParts,
    table: &SharedBlockLatencyTable,
    evaluator: &mut CachedEvaluator<SurrogateEvaluator>,
    gate: &mut GateCounts,
    tracer: &mut Tracer,
) -> Result<Vec<EpisodeRecord>, String> {
    enum Gated {
        Malformed,
        Rejected(EpisodeRecord),
        Pending(archspace::Architecture, f64),
    }

    let chunk_size = config.episodes_per_update.max(1);
    let mut history = Vec::with_capacity(config.episodes);
    let mut episode = 0;
    while episode < config.episodes {
        let chunk = chunk_size.min(config.episodes - episode);
        let mut samples: Vec<EpisodeSample> = Vec::with_capacity(chunk);
        for _ in 0..chunk {
            let sample = tracer.span("controller.sample", |_| parts.controller.sample_episode());
            samples.push(sample.map_err(|e| e.to_string())?);
        }
        gate.sampled += chunk as u64;

        let mut prepared = Vec::with_capacity(chunk);
        for (offset, sample) in samples.iter().enumerate() {
            let index = episode + offset;
            let child = tracer.span("archspace.instantiate", |_| {
                let decisions = parts.space.decisions_from_actions(&sample.actions).ok()?;
                parts
                    .template
                    .instantiate(&parts.space, &decisions, format!("fahana-ep{index}"))
                    .ok()
            });
            let Some(child) = child else {
                gate.malformed += 1;
                prepared.push(Gated::Malformed);
                continue;
            };
            let latency_ms = tracer.span("edgehw.lut", |_| table.estimate_ms(&child));
            let storage_mb = child.storage_mb();
            let meets_storage = config
                .storage_limit_mb
                .is_none_or(|limit| storage_mb <= limit);
            let meets_latency = latency_ms <= config.reward.timing_constraint_ms;
            gate.over_latency += u64::from(!meets_latency);
            gate.over_storage += u64::from(!meets_storage);
            if meets_latency && meets_storage {
                gate.evaluated += 1;
                prepared.push(Gated::Pending(child, latency_ms));
            } else {
                prepared.push(Gated::Rejected(EpisodeRecord {
                    episode: index,
                    name: child.name().to_string(),
                    params: child.param_count(),
                    storage_mb,
                    latency_ms,
                    accuracy: 0.0,
                    unfairness: 0.0,
                    trained_params: 0,
                    reward: -1.0,
                    valid: false,
                }));
            }
        }

        let mut batch = Vec::with_capacity(chunk);
        for (offset, (sample, prep)) in samples.into_iter().zip(prepared).enumerate() {
            let index = episode + offset;
            let record = match prep {
                Gated::Malformed => invalid_record(index),
                Gated::Rejected(record) => record,
                Gated::Pending(arch, latency_ms) => {
                    let evaluation = tracer.span("evaluator.eval", |_| {
                        evaluator.evaluate_with_frozen(&arch, parts.frozen_blocks)
                    });
                    match evaluation {
                        Ok(evaluation) => {
                            let reward = config.reward.compute(
                                evaluation.accuracy(),
                                evaluation.unfairness(),
                                latency_ms,
                            );
                            EpisodeRecord {
                                episode: index,
                                name: arch.name().to_string(),
                                params: arch.param_count(),
                                storage_mb: arch.storage_mb(),
                                latency_ms,
                                accuracy: evaluation.accuracy(),
                                unfairness: evaluation.unfairness(),
                                trained_params: evaluation.trained_params,
                                reward: reward.value,
                                valid: reward.valid,
                            }
                        }
                        Err(_) => invalid_record(index),
                    }
                }
            };
            batch.push((sample, record.reward));
            history.push(record);
        }
        tracer
            .span("controller.update", |_| parts.controller.update(&batch))
            .map_err(|e| e.to_string())?;
        episode += chunk;
    }
    Ok(history)
}

/// The first difference between two histories, comparing every float by
/// its bits; `None` when they are identical.
pub fn first_mismatch(expected: &[EpisodeRecord], got: &[EpisodeRecord]) -> Option<String> {
    if expected.len() != got.len() {
        return Some(format!(
            "{} episodes, expected {}",
            got.len(),
            expected.len()
        ));
    }
    for (a, b) in expected.iter().zip(got) {
        let floats = [
            ("storage_mb", a.storage_mb, b.storage_mb),
            ("latency_ms", a.latency_ms, b.latency_ms),
            ("accuracy", a.accuracy, b.accuracy),
            ("unfairness", a.unfairness, b.unfairness),
            ("reward", a.reward, b.reward),
        ];
        let same = a.episode == b.episode
            && a.name == b.name
            && a.params == b.params
            && a.trained_params == b.trained_params
            && a.valid == b.valid
            && floats.iter().all(|(_, x, y)| x.to_bits() == y.to_bits());
        if !same {
            return Some(format!("episode {}: expected {a:?}, got {b:?}", a.episode));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> CampaignConfig {
        CampaignConfig {
            episodes: 6,
            samples: 120,
            ..grid_config(11)
        }
    }

    #[test]
    fn replay_reproduces_the_engine_and_a_perturbed_history_is_caught() {
        let config = tiny_grid();
        let outcome = CampaignEngine::new(config.clone()).unwrap().run().unwrap();
        let mut tracer = Tracer::new(true);
        let replay = replay_grid(&config, &outcome, &mut tracer).unwrap();
        assert_eq!(replay.histories.len(), 8);
        for (scenario, history) in outcome.scenarios.iter().zip(&replay.histories) {
            assert_eq!(first_mismatch(&scenario.outcome.history, history), None);
        }
        trace::check_nesting(tracer.spans()).unwrap();
        assert_eq!(
            trace::self_ns_by_op(tracer.spans()),
            trace::root_ns_by_op(tracer.spans())
        );
        assert_eq!(replay.gate.sampled, 48);

        // one ulp on one reward, then a renamed child: both must be caught
        let expected = &outcome.scenarios[0].outcome.history;
        let mut perturbed = replay.histories[0].clone();
        perturbed[3].reward = f64::from_bits(perturbed[3].reward.to_bits() + 1);
        assert!(first_mismatch(expected, &perturbed).is_some());
        let mut renamed = replay.histories[0].clone();
        renamed[0].name.push('x');
        assert!(first_mismatch(expected, &renamed).is_some());
        assert!(first_mismatch(expected, &replay.histories[0][1..]).is_some());
    }
}
