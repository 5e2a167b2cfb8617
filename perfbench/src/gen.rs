//! Seeded input generators: machine configurations for `config-sweep` and
//! the request mix for `service-sweep`.  The same seed gives the same
//! inputs; the program under test only ever sees the generated values.

use guardspec_core::DriverOptions;
use guardspec_harness::key::describe_config;
use guardspec_predict::Scheme;
use guardspec_server::protocol::{CellReq, RunRequest, WorkloadReq};
use guardspec_sim::MachineConfig;
use guardspec_workloads::Scale;
use std::collections::HashSet;

/// SplitMix64: tiny, stateless to seed, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ba5e_0f00_d001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Levels of each drawn parameter: the ROB, the branch queue, the other
/// three queues, the BHT and the frontend depth.  Everything else stays at
/// Table 2.
const ROB: [usize; 4] = [16, 32, 64, 96];
const BR_QUEUE: [usize; 4] = [2, 4, 4, 8];
const QUEUE: [usize; 4] = [8, 16, 24, 32];
const BHT: [usize; 4] = [128, 512, 1024, 4096];
const DEPTH: [u64; 4] = [1, 2, 4, 6];

/// `n` values of `levels`, each level used equally often (in a shuffled
/// order) as far as `n` allows.
fn stratified<T: Copy>(rng: &mut Rng, levels: &[T], n: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut round = levels.to_vec();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i + 1));
        }
        out.extend(round);
    }
    out.truncate(n);
    out
}

/// `n` R10000 variants none of which is in `seen` (which grows), so every
/// simulation entry a sweep needs is new to the cache.  Each parameter is
/// drawn stratified over its levels: a batch differs from the next in how
/// the levels combine, not in how much machine it simulates.
pub fn fresh_configs(rng: &mut Rng, seen: &mut HashSet<String>, n: usize) -> Vec<MachineConfig> {
    loop {
        let rob = stratified(rng, &ROB, n);
        let br = stratified(rng, &BR_QUEUE, n);
        let qs: Vec<Vec<usize>> = (0..3).map(|_| stratified(rng, &QUEUE, n)).collect();
        let bht = stratified(rng, &BHT, n);
        let depth = stratified(rng, &DEPTH, n);
        let batch: Vec<MachineConfig> = (0..n)
            .map(|k| {
                let mut cfg = MachineConfig::r10000();
                cfg.rob_size = rob[k];
                cfg.queue_size = [br[k], qs[0][k], qs[1][k], qs[2][k]];
                cfg.bht_entries = bht[k];
                cfg.frontend_depth = depth[k];
                cfg
            })
            .collect();
        let keys: HashSet<String> = batch.iter().map(describe_config).collect();
        if keys.len() == n && keys.iter().all(|k| !seen.contains(k)) {
            seen.extend(keys);
            return batch;
        }
    }
}

/// The four paper programs, in Table 1 order, and the names their
/// assembly-text requests carry.
pub const PROGRAMS: [&str; 4] = ["compress", "espresso", "xlisp", "grep"];
pub const TEXT_NAMES: [&str; 4] = ["compress-text", "espresso-text", "xlisp-text", "grep-text"];

/// Each round of service requests holds every program under every scheme
/// once as a new request (12), one program's three of them sent as
/// assembly text (25% of new requests, each program every fourth round),
/// and 6 repeats of earlier new requests (a third of the round), in a
/// shuffled order.  Rounds keep the mix the same for every seed.
///
/// These shares are assumptions, not measured traffic: the repository
/// holds no log of real requests.  Each class is there for the daemon path
/// it exercises (new: execution; repeat: the response cache; text:
/// request decoding and program parsing), and the shares only make every
/// class appear in every round.  Each class's measured share of op time is
/// reported, so the effect of the assumption is visible.
const ROUND_REPEATS: usize = 6;

/// One generated service request.
#[derive(Clone, Debug)]
pub struct ServiceRequest {
    pub request: RunRequest,
    /// Index of the earlier request this one repeats byte for byte.
    pub repeat_of: Option<usize>,
}

/// The request classes of the mix, in the order [`ServiceRequest::class`]
/// numbers them.
pub const CLASSES: [&str; 3] = ["new", "text", "repeat"];

impl ServiceRequest {
    /// Index into [`CLASSES`]: a repeat, a new request carrying assembly
    /// text, or another new request.
    pub fn class(&self) -> usize {
        match (self.repeat_of, &self.request.workloads[0]) {
            (Some(_), _) => 2,
            (None, WorkloadReq::Text { .. }) => 1,
            (None, _) => 0,
        }
    }
}

/// A closed-loop request sequence of single-cell, test-scale requests:
/// new configurations (executed), repeats (answered from the response
/// cache) and a share of programs sent as assembly text.  `texts` holds the
/// printed test-scale program of each entry of [`PROGRAMS`].
pub fn service_requests(rng: &mut Rng, n: usize, texts: &[String]) -> Vec<ServiceRequest> {
    let mut seen = HashSet::new();
    let mut out: Vec<ServiceRequest> = Vec::with_capacity(n);
    let mut fresh: Vec<usize> = Vec::new();
    let mut round = 0;
    while out.len() < n {
        // `Some((program, scheme))` is a new request, `None` a repeat.
        let mut items: Vec<Option<(usize, Scheme)>> = (0..PROGRAMS.len())
            .flat_map(|p| Scheme::ALL.map(|s| Some((p, s))))
            .chain(std::iter::repeat_n(None, ROUND_REPEATS))
            .collect();
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i + 1));
        }
        if fresh.is_empty() {
            // Nothing to repeat yet: open with a new request.
            let first = items
                .iter()
                .position(Option::is_some)
                .expect("round has new requests");
            items.swap(0, first);
        }
        for item in items {
            if out.len() == n {
                break;
            }
            let Some((p, scheme)) = item else {
                let of = fresh[rng.below(fresh.len())];
                let request = out[of].request.clone();
                out.push(ServiceRequest {
                    request,
                    repeat_of: Some(of),
                });
                continue;
            };
            let cfg = fresh_configs(rng, &mut seen, 1).remove(0);
            let workload = if p == round % PROGRAMS.len() {
                WorkloadReq::Text {
                    name: TEXT_NAMES[p].to_string(),
                    program: texts[p].clone(),
                }
            } else {
                WorkloadReq::Builtin(PROGRAMS[p].to_string())
            };
            fresh.push(out.len());
            out.push(ServiceRequest {
                request: RunRequest {
                    name: "service-sweep".to_string(),
                    scale: Scale::Test,
                    client: None,
                    observe: false,
                    sample: None,
                    workloads: vec![workload],
                    cells: vec![CellReq {
                        workload: 0,
                        label: scheme.label().to_string(),
                        scheme,
                        options: (scheme == Scheme::Proposed).then(DriverOptions::proposed),
                        config: cfg,
                    }],
                },
                repeat_of: None,
            });
        }
        round += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_server::protocol::request_to_json;

    fn configs(seed: u64) -> Vec<String> {
        let mut rng = Rng::new(seed);
        fresh_configs(&mut rng, &mut HashSet::new(), 16)
            .iter()
            .map(describe_config)
            .collect()
    }

    fn bodies(seed: u64) -> Vec<String> {
        let texts: Vec<String> = PROGRAMS.iter().map(|p| format!("; {p}")).collect();
        service_requests(&mut Rng::new(seed), 64, &texts)
            .iter()
            .map(|r| request_to_json(&r.request).to_compact())
            .collect()
    }

    #[test]
    fn configs_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(configs(7), configs(7));
        assert_ne!(configs(7), configs(8));
        let distinct: HashSet<_> = configs(7).into_iter().collect();
        assert_eq!(distinct.len(), 16);
    }

    #[test]
    fn a_batch_uses_every_level_once() {
        let batch = fresh_configs(&mut Rng::new(5), &mut HashSet::new(), 4);
        let mut robs: Vec<usize> = batch.iter().map(|c| c.rob_size).collect();
        robs.sort();
        assert_eq!(robs, ROB.to_vec());
        let mut depths: Vec<u64> = batch.iter().map(|c| c.frontend_depth).collect();
        depths.sort();
        assert_eq!(depths, DEPTH.to_vec());
    }

    #[test]
    fn requests_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(bodies(3), bodies(3));
        assert_ne!(bodies(3), bodies(4));
    }

    #[test]
    fn request_mix_has_repeats_texts_and_fresh_configs() {
        let texts: Vec<String> = PROGRAMS.iter().map(|p| format!("; {p}")).collect();
        let reqs = service_requests(&mut Rng::new(11), 360, &texts);
        let repeats = reqs.iter().filter(|r| r.repeat_of.is_some()).count();
        let text = reqs
            .iter()
            .filter(|r| r.repeat_of.is_none())
            .filter(|r| matches!(r.request.workloads[0], WorkloadReq::Text { .. }))
            .count();
        // 20 whole rounds of 12 new (3 as text) and 6 repeated requests.
        assert_eq!(repeats, 120);
        assert_eq!(text, 60);
        let mut by_class = [0; 3];
        for r in &reqs {
            by_class[r.class()] += 1;
        }
        assert_eq!(by_class, [180, 60, 120]);
        for r in &reqs {
            if let Some(of) = r.repeat_of {
                assert!(reqs[of].repeat_of.is_none());
                assert_eq!(
                    request_to_json(&r.request).to_compact(),
                    request_to_json(&reqs[of].request).to_compact()
                );
            }
        }
    }
}
