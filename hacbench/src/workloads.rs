//! The four workloads: the shipped programs, their sizes, and the
//! seeded request stream each daemon connection sends.

use std::collections::{HashMap, VecDeque};

use hac_core::pipeline::{Compiled, Unit};
use hac_runtime::value::ArrayBuf;
use hac_serve::Request;
use hac_workloads::XorShift;

/// One shipped program.
pub struct Program {
    pub name: &'static str,
    pub source: &'static str,
    /// Whether its cost certificate is exact, so that an under-budget
    /// request is rejected at admission. Every `bigupd` is priced as an
    /// upper bound, so `sor` and the poke programs run metered instead.
    pub exact_cert: bool,
}

/// `programs/*.hac`, in the order of [`Sizes::kernel_n`].
pub const PROGRAMS: [Program; 7] = [
    Program {
        name: "dot",
        source: include_str!("../../programs/dot.hac"),
        exact_cert: true,
    },
    Program {
        name: "jacobi",
        source: include_str!("../../programs/jacobi.hac"),
        exact_cert: true,
    },
    Program {
        name: "matmul",
        source: include_str!("../../programs/matmul.hac"),
        exact_cert: true,
    },
    Program {
        name: "matvec",
        source: include_str!("../../programs/matvec.hac"),
        exact_cert: true,
    },
    Program {
        name: "sor",
        source: include_str!("../../programs/sor.hac"),
        exact_cert: false,
    },
    Program {
        name: "tridiag",
        source: include_str!("../../programs/tridiag.hac"),
        exact_cert: true,
    },
    Program {
        name: "wavefront",
        source: include_str!("../../programs/wavefront.hac"),
        exact_cert: true,
    },
];

const JACOBI_POKE: &str = include_str!("../../programs/incremental/jacobi_poke.hac");
const BAND_POKE: &str = include_str!("../../programs/incremental/band_poke.hac");

/// Problem sizes. [`FULL`] is the benchmark; the smoke test shrinks
/// everything so a debug build finishes in seconds.
pub struct Sizes {
    /// `n` for each of [`PROGRAMS`] in `kernels` and on `cold_mix`
    /// connection A.
    pub kernel_n: [i64; 7],
    /// The two sizes of the `hot_repeat` hot set.
    pub hot_n: [i64; 2],
    /// Inclusive `n` range on `cold_mix` connection B.
    pub cold_n: (i64, i64),
    /// `jacobi_poke` mesh side on `sliding_delta` connection A.
    pub poke_n: i64,
    /// `band_poke` length on `sliding_delta` connection B.
    pub band_n: i64,
    pub band_widths: [i64; 3],
}

pub const FULL: Sizes = Sizes {
    kernel_n: [65536, 512, 48, 256, 256, 65536, 256],
    hot_n: [16, 48],
    cold_n: (8, 40),
    poke_n: 256,
    band_n: 32768,
    band_widths: [1, 256, 4096],
};

#[cfg(test)]
pub const SMOKE: Sizes = Sizes {
    kernel_n: [512, 24, 6, 16, 16, 512, 16],
    hot_n: [4, 8],
    cold_n: (4, 10),
    poke_n: 16,
    band_n: 512,
    band_widths: [1, 16, 64],
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Kernels,
    HotRepeat,
    SlidingDelta,
    ColdMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Kernels,
        Workload::HotRepeat,
        Workload::SlidingDelta,
        Workload::ColdMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::HotRepeat => "hot_repeat",
            Workload::SlidingDelta => "sliding_delta",
            Workload::ColdMix => "cold_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64 of `seed + salt`: decorrelates the per-connection and
/// per-program generators drawn from one `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `input` arrays the serving layer fills for a request with
/// `seed` (the scheme of `hacc --fill random:SEED`), so an in-process
/// replay runs on exactly the daemon's inputs.
pub fn fill_inputs(compiled: &Compiled, seed: u64) -> HashMap<String, ArrayBuf> {
    let mut rng = XorShift::new(seed);
    let mut out = HashMap::new();
    for unit in &compiled.units {
        if let Unit::Input { name, bounds } = unit {
            let mut buf = ArrayBuf::new(bounds, 0.0);
            for v in buf.data_mut() {
                *v = (rng.next_f64() * 10.0).round() / 10.0;
            }
            out.insert(name.clone(), buf);
        }
    }
    out
}

/// A generated request and the program it instantiates.
#[derive(Clone)]
pub struct Sent {
    pub program: &'static str,
    pub req: Request,
}

/// Repeats of `sliding_delta` draw from this many most recent slides.
const RECENT: usize = 8;

/// A request mix, dealt in shuffled blocks: each block holds every kind
/// of request its exact number of times. Every block-aligned prefix of
/// a stream then has exactly the mix, so windows differ only in their
/// last, partial block — steadier than independent draws.
struct Deck {
    block: Vec<usize>,
    next: usize,
}

impl Deck {
    /// `counts[k]`: how many requests of kind `k` a block holds.
    fn new(counts: &[usize]) -> Deck {
        let block: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
            .collect();
        Deck {
            next: block.len(),
            block,
        }
    }

    fn draw(&mut self, rng: &mut XorShift) -> usize {
        if self.next == self.block.len() {
            for i in (1..self.block.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

/// One connection's request stream, drawn from a seeded generator.
/// Connection 0 bills tenant `acme` (weight 3), connection 1 `globex`
/// (weight 1); their result-cache keys never overlap.
pub struct Stream {
    workload: Workload,
    conn: usize,
    sizes: &'static Sizes,
    rng: XorShift,
    deck: Deck,
    /// The input-fill seed of the connection's current family.
    input_seed: u64,
    sent: u64,
    /// `hot_repeat`: the primed hot set.
    hot: Vec<Sent>,
    /// `sliding_delta`: the last [`RECENT`] slides.
    recent: VecDeque<Sent>,
}

impl Stream {
    pub fn new(workload: Workload, conn: usize, seed: u64, sizes: &'static Sizes) -> Stream {
        let deck = match (workload, conn) {
            // 9 hot-set hits, 1 over-certificate rejection.
            (Workload::HotRepeat, _) => Deck::new(&[9, 1]),
            // 16 new slides, 3 repeats, 1 new input seed.
            (Workload::SlidingDelta, _) => Deck::new(&[16, 3, 1]),
            // Each program once.
            (Workload::ColdMix, 0) => Deck::new(&[1; PROGRAMS.len()]),
            // Each program 9 times, plus 7 metered `sor`s out of fuel:
            // one request in ten.
            (Workload::ColdMix, _) => {
                let mut counts = vec![9; PROGRAMS.len()];
                counts.push(7);
                Deck::new(&counts)
            }
            (Workload::Kernels, _) => Deck::new(&[]),
        };
        let mut s = Stream {
            workload,
            conn,
            sizes,
            rng: XorShift::new(mix(seed, 1 + 2 * workload as u64 + conn as u64)),
            deck,
            input_seed: 0,
            sent: 0,
            hot: Vec::new(),
            recent: VecDeque::new(),
        };
        s.input_seed = s.fresh_seed();
        if workload == Workload::HotRepeat {
            for p in &PROGRAMS {
                for n in sizes.hot_n {
                    let seed = s.input_seed;
                    let hot = s.make(p.name, p.source.to_string(), vec![("n", n)], seed, None);
                    s.hot.push(hot);
                }
            }
        }
        s
    }

    fn below(&mut self, n: i64) -> i64 {
        (self.rng.next_u64() % n as u64) as i64
    }

    /// A new input seed. The wire carries numbers as doubles, so seeds
    /// stay below 2^53.
    fn fresh_seed(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    fn make(
        &mut self,
        program: &'static str,
        source: String,
        params: Vec<(&str, i64)>,
        seed: u64,
        fuel: Option<u64>,
    ) -> Sent {
        let mut req = Request::new(format!("{}{}", ["a", "b"][self.conn], self.sent), source);
        self.sent += 1;
        req.params = params
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        req.seed = seed;
        req.fuel = fuel;
        req.tenant = Some(["acme", "globex"][self.conn].to_string());
        req.weight = Some([3, 1][self.conn]);
        Sent { program, req }
    }

    /// Re-send an earlier request under a fresh id.
    fn again(&mut self, s: &Sent) -> Sent {
        let mut s = s.clone();
        s.req.id = format!("{}{}", ["a", "b"][self.conn], self.sent);
        self.sent += 1;
        s
    }

    /// Requests sent once during set-up, before the timed window.
    pub fn priming(&mut self) -> Vec<Sent> {
        match (self.workload, self.conn) {
            // Connection B starts halfway through the shared hot set, so the
            // two never compile the same program at once.
            (Workload::HotRepeat, c) => {
                let mut hot = self.hot.clone();
                let half = c * hot.len() / 2;
                hot.rotate_left(half);
                hot
            }
            (Workload::SlidingDelta, _) => vec![self.slide()],
            // Warm the program cache, so the window's full runs hit it.
            (Workload::ColdMix, 0) => (0..PROGRAMS.len()).map(|p| self.cold_a(p)).collect(),
            _ => Vec::new(),
        }
    }

    pub fn next(&mut self) -> Sent {
        let kind = self.deck.draw(&mut self.rng);
        match (self.workload, self.conn, kind) {
            (Workload::HotRepeat, _, 0) => {
                let k = self.below(self.hot.len() as i64) as usize;
                let hot = self.hot[k].clone();
                self.again(&hot)
            }
            (Workload::HotRepeat, ..) => {
                // Over-certificate: `fuel:3` on an exactly priced program.
                let exact: Vec<&Program> = PROGRAMS.iter().filter(|p| p.exact_cert).collect();
                let p = exact[self.below(exact.len() as i64) as usize];
                let n = self.sizes.hot_n[self.below(2) as usize];
                let seed = self.input_seed;
                self.make(p.name, p.source.to_string(), vec![("n", n)], seed, Some(3))
            }
            (Workload::SlidingDelta, _, 1) if !self.recent.is_empty() => {
                let k = self.below(self.recent.len() as i64) as usize;
                let old = self.recent[k].clone();
                self.again(&old)
            }
            (Workload::SlidingDelta, _, 2) => {
                // A new input seed: a miss that refills the family.
                self.input_seed = self.fresh_seed();
                self.slide()
            }
            (Workload::SlidingDelta, ..) => self.slide(),
            (Workload::ColdMix, 0, p) => self.cold_a(p),
            (Workload::ColdMix, _, p) => self.cold_b(p),
            (Workload::Kernels, ..) => unreachable!("kernels runs in process"),
        }
    }

    /// A new slide of the connection's poke program on its current seed.
    fn slide(&mut self) -> Sent {
        let seed = self.input_seed;
        let uv = self.below(100);
        let s = if self.conn == 0 {
            let n = self.sizes.poke_n;
            let (ui, uj) = (1 + self.below(n), 1 + self.below(n));
            let params = vec![("n", n), ("ui", ui), ("uj", uj), ("uv", uv)];
            self.make("jacobi_poke", JACOBI_POKE.to_string(), params, seed, None)
        } else {
            let n = self.sizes.band_n;
            let w = self.sizes.band_widths[self.below(3) as usize];
            let lo = 1 + self.below(n - w + 1);
            let params = vec![("n", n), ("lo", lo), ("hi", lo + w - 1), ("uv", uv)];
            self.make("band_poke", BAND_POKE.to_string(), params, seed, None)
        };
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(s.clone());
        s
    }

    /// `cold_mix` connection A: a kernel-sized program on a fresh seed.
    fn cold_a(&mut self, p: usize) -> Sent {
        let prog = &PROGRAMS[p];
        let seed = self.fresh_seed();
        let n = self.sizes.kernel_n[p];
        self.make(
            prog.name,
            prog.source.to_string(),
            vec![("n", n)],
            seed,
            None,
        )
    }

    /// `cold_mix` connection B: small program `kind` made unique by a
    /// comment line, so it misses the program cache; kind 7 is a
    /// metered `sor` that runs out of fuel.
    fn cold_b(&mut self, kind: usize) -> Sent {
        let sor = kind == PROGRAMS.len();
        let p = if sor {
            PROGRAMS
                .iter()
                .position(|p| p.name == "sor")
                .expect("sor is shipped")
        } else {
            kind
        };
        let (lo, hi) = self.sizes.cold_n;
        let n = lo + self.below(hi - lo + 1);
        let seed = self.fresh_seed();
        let source = format!("{}-- req {}\n", PROGRAMS[p].source, self.sent);
        let fuel = sor.then_some(3);
        self.make(PROGRAMS[p].name, source, vec![("n", n)], seed, fuel)
    }
}
