// Section 1/2 headline arithmetic + emulator micro-kernels.
//
// Prints the peak-speed table of the machine hierarchy (chip 30.8 Gflops,
// host 3.94 Tflops, cluster 15.76 Tflops, system 63.04 Tflops) and then
// runs google-benchmark microbenchmarks of the emulation kernels so the
// cost of bit-level emulation itself is documented.

#include <benchmark/benchmark.h>

#include <iostream>

#include "core/grape6.hpp"

namespace {

using namespace g6;

void print_peak_table() {
  print_banner(std::cout, "GRAPE-6 peak-speed arithmetic (57 flops/interaction)");
  const MachineConfig mc = MachineConfig::full_system();
  std::printf("pipeline:  1 interaction/cycle @ %.0f MHz = %6.2f Gflops\n",
              mc.clock_hz / 1e6, mc.clock_hz * units::kFlopsPerInteraction / 1e9);
  std::printf("chip:      %zu pipelines (x%zu VMP)      = %6.2f Gflops (paper: 30.8)\n",
              mc.pipelines_per_chip, mc.vmp_ways, mc.chip_peak_flops() / 1e9);
  std::printf("module:    %zu chips                    = %6.2f Gflops\n",
              mc.chips_per_module,
              mc.chip_peak_flops() * static_cast<double>(mc.chips_per_module) / 1e9);
  std::printf("board:     %zu modules (%zu chips)       = %6.2f Gflops\n",
              mc.modules_per_board, mc.chips_per_board(),
              mc.chip_peak_flops() * static_cast<double>(mc.chips_per_board()) / 1e9);
  std::printf("host:      %zu boards (%zu chips)       = %6.2f Tflops\n",
              mc.boards_per_host, mc.chips_per_host(),
              mc.chip_peak_flops() * static_cast<double>(mc.chips_per_host()) / 1e12);
  std::printf("cluster:   %zu hosts                    = %6.2f Tflops\n",
              mc.hosts_per_cluster,
              mc.chip_peak_flops() *
                  static_cast<double>(mc.chips_per_host() * mc.hosts_per_cluster) /
                  1e12);
  std::printf("system:    %zu clusters (%zu chips)    = %6.2f Tflops (paper: 63.04)\n\n",
              mc.clusters, mc.total_chips(), mc.peak_flops() / 1e12);
}

void BM_QuantizePipelineFormat(benchmark::State& state) {
  const FloatFormat f = formats::pipeline();
  double x = 1.234567890123;
  for (auto _ : state) {
    x = f.quantize(x * 1.0000001);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_QuantizePipelineFormat);

void BM_PairwiseDouble(benchmark::State& state) {
  Force f;
  const Vec3 xi{0.1, 0.2, 0.3}, vi{0.0, 0.1, 0.0};
  const Vec3 xj{1.0, -0.5, 0.25}, vj{-0.1, 0.0, 0.05};
  for (auto _ : state) {
    accumulate_pairwise(xi, vi, xj, vj, 1e-3, 1e-4, f);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_PairwiseDouble);

void BM_PipelineInteraction(benchmark::State& state) {
  const bool exact = state.range(0) != 0;
  const NumberFormats fmt = exact ? NumberFormats::exact() : NumberFormats{};
  ForcePipeline pipe(fmt);
  PredictorUnit unit(fmt);
  JParticle jp;
  jp.mass = 1e-3;
  jp.pos = {1.0, -0.5, 0.25};
  jp.vel = {-0.1, 0.0, 0.05};
  const StoredJParticle stored = quantize_j_particle(jp, 0, fmt);
  const auto pj = unit.predict(stored, 0.0);
  PredictedState ip;
  ip.index = 1;
  ip.pos = {0.1, 0.2, 0.3};
  const IParticlePacket pkt = quantize_i_particle(ip, fmt);
  HwAccumulators acc;
  acc.reset({4, 8, 4});
  for (auto _ : state) {
    pipe.interact(pj, pkt, 1e-4, acc);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PipelineInteraction)->Arg(0)->Arg(1)
    ->ArgNames({"exact"});

void BM_PredictorPipeline(benchmark::State& state) {
  const NumberFormats fmt;
  PredictorUnit unit(fmt);
  JParticle jp;
  jp.mass = 1e-3;
  jp.pos = {1.0, -0.5, 0.25};
  jp.vel = {-0.1, 0.0, 0.05};
  jp.acc = {0.01, 0.0, -0.01};
  const StoredJParticle stored = quantize_j_particle(jp, 0, fmt);
  double t = 0.0;
  for (auto _ : state) {
    t = t >= 0.25 ? 0.0 : t + 1.0 / 4096.0;  // stay within the dt range
    benchmark::DoNotOptimize(unit.predict(stored, t));
  }
}
BENCHMARK(BM_PredictorPipeline);

void BM_BlockFloatAdd(benchmark::State& state) {
  BlockFloatAccumulator acc(8);
  double x = 0.001;
  for (auto _ : state) {
    acc.add(x);
    x = -x * 1.0000001;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_BlockFloatAdd);

// Whole-chip pass: an i-block of `n_i` slots against `n_j` stored
// j-particles. Its items/s is the chip-pass interaction rate.
void chip_pass(benchmark::State& state, std::size_t n_j, std::size_t n_i) {
  const MachineConfig mc;
  const NumberFormats fmt;
  Chip chip(mc, fmt);
  Rng rng(7);
  const ParticleSet set = make_plummer(n_j + n_i, rng);
  chip.reserve_slots(n_j);
  for (std::size_t s = 0; s < n_j; ++s) {
    JParticle jp;
    jp.mass = set[s].mass;
    jp.pos = set[s].pos;
    jp.vel = set[s].vel;
    chip.write(s, quantize_j_particle(jp, static_cast<std::uint32_t>(s), fmt));
  }
  std::vector<IParticlePacket> iblock(n_i);
  for (std::size_t k = 0; k < iblock.size(); ++k) {
    PredictedState p;
    p.pos = set[n_j + k].pos;
    p.vel = set[n_j + k].vel;
    p.index = static_cast<std::uint32_t>(n_j + k);
    iblock[k] = quantize_i_particle(p, fmt);
  }
  std::vector<HwAccumulators> out(iblock.size());
  for (auto _ : state) {
    for (auto& a : out) a.reset({4, 8, 4});
    chip.run_pass(0.0, iblock, 1e-4, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_j * iblock.size()));
}

// A full 48-slot i-block; the row gated by scripts/bench_regress.py.
// nj = 1 and 32 are about the per-chip j counts of perfbench's
// serve_volatile and integrate workloads; nj = 512 is the long-stream row.
void BM_ChipPass(benchmark::State& state) {
  chip_pass(state, static_cast<std::size_t>(state.range(0)),
            MachineConfig{}.i_parallelism());
}
BENCHMARK(BM_ChipPass)->Arg(1)->Arg(32)->Arg(512)->ArgName("nj");

// Partial i-blocks, where lanes across i-slots run part empty: ni = 10 at
// one j is serve_volatile's mean block on a sparsely filled chip; ni = 1,
// 4 and 13 at nj = 32 are one lane group alone, one full group, and three
// full groups and one slot.
void BM_ChipPassBlock(benchmark::State& state) {
  chip_pass(state, static_cast<std::size_t>(state.range(0)),
            static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_ChipPassBlock)
    ->Args({1, 10})
    ->Args({32, 1})
    ->Args({32, 4})
    ->Args({32, 13})
    ->ArgNames({"nj", "ni"});

// Whole-module pass: four chips holding `nj` j-particles each against an
// i-block of `ni` slots, merged by the module's summation unit. nj = 2
// is serve_volatile's per-chip j count (N = 64 over two boards), ni = 2
// and 10 its common small blocks; nj = 32 at a full block is integrate's
// shape. Its items/s counts the module's interactions.
void BM_ModulePass(benchmark::State& state) {
  const std::size_t n_j = static_cast<std::size_t>(state.range(0));
  const std::size_t n_i = static_cast<std::size_t>(state.range(1));
  const MachineConfig mc;
  const NumberFormats fmt;
  ProcessorModule module(mc, fmt);
  const std::size_t chips = module.chip_count();
  Rng rng(7);
  const ParticleSet set = make_plummer(chips * n_j + n_i, rng);
  for (std::size_t s = 0; s < chips * n_j; ++s) {
    JParticle jp;
    jp.mass = set[s].mass;
    jp.pos = set[s].pos;
    jp.vel = set[s].vel;
    const auto index = static_cast<std::uint32_t>(s);
    module.chip(s / n_j).write(s % n_j, quantize_j_particle(jp, index, fmt));
  }
  std::vector<IParticlePacket> iblock(n_i);
  for (std::size_t k = 0; k < iblock.size(); ++k) {
    PredictedState p;
    p.pos = set[chips * n_j + k].pos;
    p.vel = set[chips * n_j + k].vel;
    p.index = static_cast<std::uint32_t>(chips * n_j + k);
    iblock[k] = quantize_i_particle(p, fmt);
  }
  const std::vector<BlockExponents> exps(n_i, BlockExponents{4, 8, 4});
  std::vector<HwPartialWords> out(n_i);
  for (auto _ : state) {
    module.run_pass(0.0, iblock, exps, 1e-4, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chips * n_j * n_i));
}
BENCHMARK(BM_ModulePass)
    ->Args({1, 2})
    ->Args({2, 2})
    ->Args({2, 10})
    ->Args({32, 48})
    ->ArgNames({"nj", "ni"});

void BM_OctreeBuild(benchmark::State& state) {
  Rng rng(1);
  const ParticleSet set = make_plummer(static_cast<std::size_t>(state.range(0)), rng);
  Octree tree;
  for (auto _ : state) {
    tree.build(set.bodies());
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OctreeBuild)->Arg(1024)->Arg(8192);

void BM_OctreeForce(benchmark::State& state) {
  Rng rng(2);
  const ParticleSet set = make_plummer(8192, rng);
  Octree tree;
  tree.build(set.bodies());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.force_at(set[i].pos, 0.6, 1e-4, i));
    i = (i + 1) % set.size();
  }
}
BENCHMARK(BM_OctreeForce);

void BM_DirectBlockForce(benchmark::State& state) {
  Rng rng(3);
  const ParticleSet set = make_plummer(1024, rng);
  std::vector<JParticle> js(set.size());
  std::vector<PredictedState> block(48);
  for (std::size_t k = 0; k < set.size(); ++k) {
    js[k].mass = set[k].mass;
    js[k].pos = set[k].pos;
    js[k].vel = set[k].vel;
  }
  for (std::size_t k = 0; k < block.size(); ++k) {
    block[k] = {set[k].pos, set[k].vel, set[k].mass, static_cast<std::uint32_t>(k)};
  }
  DirectForceEngine engine(1.0 / 64.0);
  engine.load_particles(js);
  std::vector<Force> out(block.size());
  for (auto _ : state) {
    engine.compute_forces(0.0, block, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 48 * (set.size() - 1));
}
BENCHMARK(BM_DirectBlockForce);

}  // namespace

int main(int argc, char** argv) {
  print_peak_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
