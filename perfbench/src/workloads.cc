#include "workloads.h"

namespace perfbench {

using cm::apps::Window;
using cm::core::Mechanism;
using cm::core::Scheme;

const std::vector<Workload>& all_workloads() {
  // Windows are sized so one repetition takes roughly half a second of host
  // time on a current x86 core. counting_rpc1024's ops take ~250-400k
  // cycles and its throughput settles slowly, so it gets a long warm-up and
  // window (about 1.5 s a repetition); at 1M cycles one input's event count
  // differed from another's by 15%.
  static const std::vector<Workload> kWorkloads = {
      {"counting_cm64", false, Scheme{Mechanism::kMigration, false, false}, 8,
       64, Window{20'000, 16'000'000}},
      {"counting_sm64", false,
       Scheme{Mechanism::kSharedMemory, false, false}, 8, 64,
       Window{20'000, 2'000'000}},
      {"btree_cp_repl", true, Scheme{Mechanism::kMigration, false, true}, 8,
       16, Window{20'000, 60'000'000}},
      {"counting_rpc1024", false, Scheme{Mechanism::kRpc, false, false}, 16,
       1024, Window{2'000'000, 14'000'000}},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

cm::apps::CountingConfig counting_config(const Workload& w,
                                         std::uint64_t seed, Window win) {
  cm::apps::CountingConfig cfg;
  cfg.scheme = w.scheme;
  cfg.requesters = w.requesters;
  cfg.width = w.width;
  cfg.think = 0;
  cfg.window = win;
  cfg.seed = seed;
  return cfg;
}

cm::apps::BTreeConfig btree_config(const Workload& w, std::uint64_t seed,
                                   Window win) {
  cm::apps::BTreeConfig cfg;
  cfg.scheme = w.scheme;
  cfg.requesters = w.requesters;
  cfg.think = 0;
  cfg.window = win;
  cfg.seed = seed;
  return cfg;
}

cm::apps::RunStats run_public(const Workload& w, std::uint64_t seed,
                              Window win) {
  return w.btree ? cm::apps::run_btree(btree_config(w, seed, win))
                 : cm::apps::run_counting(counting_config(w, seed, win));
}

}  // namespace perfbench
