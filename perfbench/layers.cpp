#include "layers.hpp"

#include <sstream>

#include "cfg/dynamic_cfg.hpp"
#include "core/pipeline.hpp"
#include "statican/statican.hpp"
#include "verify/exact.hpp"
#include "verify/oracle.hpp"
#include "verify/verifier.hpp"
#include "vm/event_validator.hpp"

namespace perfbench {

namespace {

using namespace pp;

const std::string kEntry = "main";

// Stage 1 feeds the CFG builder and the CCT side by side, as the pipeline
// does.
class Tee : public vm::Observer {
 public:
  Tee(vm::Observer& a, vm::Observer& b) : a_(a), b_(b) {}
  void on_local_jump(int func, int dst_bb) override {
    a_.on_local_jump(func, dst_bb);
    b_.on_local_jump(func, dst_bb);
  }
  void on_call(vm::CodeRef site, int callee) override {
    a_.on_call(site, callee);
    b_.on_call(site, callee);
  }
  void on_return(int callee, vm::CodeRef into) override {
    a_.on_return(callee, into);
    b_.on_return(callee, into);
  }
  void on_instr(const vm::InstrEvent& ev) override {
    a_.on_instr(ev);
    b_.on_instr(ev);
  }

 private:
  vm::Observer& a_;
  vm::Observer& b_;
};

// Swallows the DDG stream (runs in O(1)), so a replay into it costs the
// builder's own work and nothing downstream.
class CountingSink : public ddg::DdgSink {
 public:
  void on_instruction(const ddg::Statement&, std::span<const i64>, bool, i64,
                      bool, i64) override {
    ++instances;
  }
  void on_dependence(ddg::DepKind, int, std::span<const i64>, int,
                     std::span<const i64>, int) override {
    ++deps;
  }
  void on_instruction_run(const InstrRun& r) override { instances += r.n; }
  void on_dependence_run(const DepRun& r) override { deps += r.n; }
  u64 instances = 0;
  u64 deps = 0;
};

// The pipeline's stage-2 options for a default run: an armed, unlimited
// budget, compaction requested (the builder vetoes it under anti/output
// tracking).
ddg::DdgOptions replay_options(bool anti_output, support::RunBudget& budget,
                               support::DiagnosticLog& diag) {
  budget.arm();
  ddg::DdgOptions o;
  o.track_anti_output = anti_output;
  o.path_compaction = true;
  o.budget = &budget;
  o.diag = &diag;
  return o;
}

// One stage-2 replay into `sink`, wired like the pipeline's serial path:
// Machine -> EventValidator -> DdgBuilder -> sink.
struct Replay {
  Replay(const ir::Module& m, const cfg::ControlStructure& cs, bool anti_output,
         ddg::DdgSink* sink)
      : builder(m, cs, sink, replay_options(anti_output, budget, diag)) {
    vm::Machine machine(m);
    vm::EventValidator validator(m, &builder, &diag, support::Stage::kDdg);
    machine.set_observer(&validator);
    result = machine.run(kEntry);
    builder.flush_compaction();
    builder.materialize_skipped_pages();
  }
  support::RunBudget budget;
  support::DiagnosticLog diag;
  ddg::DdgBuilder builder;
  vm::RunResult result;
};

}  // namespace

LayerSample decompose(const ir::Module& m, bool transforms, Tracer& tracer,
                      int profile) {
  LayerSample s;
  double pipeline_ms = 0;

  {
    Tracer::Scope sp(tracer, "verify.module", profile);
    verify::VerifyReport vr = verify::verify_module(m);
    s["verify.module_ms"] = sp.end();
    if (!vr.ok()) throw Error("module rejected by the verifier");
  }
  pipeline_ms += s["verify.module_ms"];

  // Reference interpretation: the VM alone, once per pipeline stage.
  auto vm_run = [&] {
    Tracer::Scope sp(tracer, "vm.run", profile);
    vm::Machine machine(m);
    vm::RunResult rr = machine.run(kEntry);
    s["vm.run_ms"] += sp.end();
    s["vm.instructions"] = static_cast<double>(rr.stats.instructions);
  };
  vm_run();

  // Stage 1: dynamic CFGs + CCT, then the control structure.
  cfg::DynamicCfgBuilder dyn;
  iiv::CallingContextTree cct;
  cfg::ControlStructure control;
  {
    Tracer::Scope stage(tracer, "stage1", profile);
    {
      Tracer::Scope sp(tracer, "cfg.observe", profile);
      support::DiagnosticLog diag;
      Tee tee(dyn, cct);
      vm::EventValidator validator(m, &tee, &diag, support::Stage::kControl);
      vm::Machine machine(m);
      machine.set_observer(&validator);
      machine.run(kEntry);
      s["cfg.observe_ms"] = sp.end() - s["vm.run_ms"];
    }
    {
      Tracer::Scope sp(tracer, "cfg.build", profile);
      control = cfg::ControlStructure::build(dyn, {m.find_function(kEntry)->id});
      s["cfg.build_ms"] = sp.end();
    }
    pipeline_ms += stage.end();
  }

  double vm_single = s["vm.run_ms"];
  vm_run();
  vm_single = s["vm.run_ms"] - vm_single;

  // Stage 2 into a counting sink: the DDG builder without folding.
  double counting_ms = 0;
  {
    Tracer::Scope sp(tracer, "ddg.replay", profile);
    CountingSink counting;
    Replay replay(m, control, transforms, &counting);
    counting_ms = sp.end();
    s["ddg.replay_ms"] = counting_ms - vm_single;
  }

  // Stage 2 into the folding sink, then finalize: the pipeline's ddg and
  // fold stages.
  fold::FoldingSink sink;
  support::DiagnosticLog fold_diag;
  sink.set_diagnostics(&fold_diag);
  core::ProfileResult res;
  res.module = &m;
  {
    Tracer::Scope stage(tracer, "stage2", profile);
    {
      Tracer::Scope sp(tracer, "fold.stream", profile);
      Replay replay(m, control, transforms, &sink);
      s["fold.stream_ms"] = sp.end() - counting_ms;
      res.statements = replay.builder.statements();
      s["ddg.dependences"] =
          static_cast<double>(replay.builder.dependences_emitted());
      s["ddg.shadow_pages"] =
          static_cast<double>(replay.builder.shadow().pages_live());
      s["ddg.coord_pool_words"] =
          static_cast<double>(replay.builder.coord_pool().size_words());
      const vm::PathCacheStats* ps = replay.builder.path_stats();
      s["ddg.path_bailouts"] = ps ? static_cast<double>(ps->path_bailouts) : 0;
      s["ddg.events_compressed"] =
          ps ? static_cast<double>(ps->events_compressed) : 0;
      sink.mark_degraded(replay.builder.degraded_statements());
    }
    {
      Tracer::Scope sp(tracer, "fold.finalize", profile);
      res.program = sink.finalize(res.statements);
      for (const auto& st : res.statements.all())
        res.schedule_tree.insert(st.context, st.executions);
      s["fold.finalize_ms"] = sp.end();
    }
    pipeline_ms += stage.end();
  }
  s["fold.statements"] = static_cast<double>(res.program.statements.size());
  s["fold.dep_edges"] = static_cast<double>(res.program.deps.size());
  s["fold.degraded_statements"] =
      static_cast<double>(res.program.degraded_statements);

  if (transforms) {
    Tracer::Scope stage(tracer, "transform", profile);
    transform::Options topts;
    std::vector<transform::Plan> plans;
    {
      Tracer::Scope sp(tracer, "transform.plan", profile);
      plans = transform::plan(m, res.program, control, topts);
      s["transform.plan_ms"] = sp.end();
    }
    {
      Tracer::Scope sp(tracer, "transform.apply_measure", profile);
      transform::EngineReport er =
          transform::apply_and_measure(m, res.program, plans, kEntry, {}, topts);
      s["transform.apply_measure_ms"] = sp.end();
      s["transform.applied"] = static_cast<double>(er.applied.size());
      s["transform.refused"] = static_cast<double>(er.refused.size());
      s["transform.violations"] = static_cast<double>(er.violations.size());
    }
    s["transform.plans"] = static_cast<double>(plans.size());
    pipeline_ms += stage.end();
  }

  // The feedback stage, as full_report issues it.
  std::ostringstream os;
  std::vector<feedback::Region> hot;
  {
    Tracer::Scope stage(tracer, "feedback", profile);
    {
      Tracer::Scope sp(tracer, "statican.baseline", profile);
      for (const auto& f : m.functions) {
        if (f.blocks.empty()) continue;
        statican::FunctionModel fm = statican::model_function(m, f);
        os << fm.verdict.num_loops;
      }
      s["statican.baseline_ms"] = sp.end();
    }
    {
      Tracer::Scope sp(tracer, "verify.precision", profile);
      os << verify::exact::precision_section(m);
      s["verify.precision_ms"] = sp.end();
    }
    double render_ms = 0;
    {
      Tracer::Scope sp(tracer, "feedback.render", profile);
      os << feedback::render_decorated_tree(res.schedule_tree, res.program, &m);
      render_ms += sp.end();
    }
    hot = res.hot_regions();
    std::vector<feedback::RegionMetrics> metrics(hot.size());
    for (std::size_t i = 0; i < hot.size(); ++i) {
      Tracer::Scope sp(tracer, "feedback.analyze", profile);
      metrics[i] = feedback::analyze_region(res.program, hot[i]);
      s["feedback.analyze_ms"] += sp.end();
    }
    {
      Tracer::Scope sp(tracer, "verify.oracle", profile);
      std::vector<feedback::RegionMetrics*> ptrs;
      for (auto& mx : metrics) ptrs.push_back(&mx);
      verify::OracleReport oracle = verify::run_oracle(m, res.program, ptrs);
      s["verify.oracle_ms"] = sp.end();
      double claims = 0, capped = 0, downgrades = 0;
      for (const auto& c : oracle.claims) {
        claims += static_cast<double>(c.parallel_levels);
        capped += static_cast<double>(c.capped_pieces);
        downgrades += c.downgraded_levels;
      }
      s["verify.oracle_claims"] = claims;
      s["verify.oracle_capped_pieces"] = capped;
      s["verify.oracle_downgrades"] = downgrades;
      os << oracle.verdict_line();
    }
    {
      Tracer::Scope sp(tracer, "feedback.render", profile);
      for (const auto& mx : metrics)
        os << feedback::summarize(mx) << feedback::render_ast(mx, res.program, &m);
      render_ms += sp.end();
    }
    s["feedback.render_ms"] = render_ms;
    s["feedback.regions"] = static_cast<double>(hot.size());
    pipeline_ms += stage.end();
  }

  // Scheduler alone on each hot region (a part of feedback.analyze_ms,
  // measured separately).
  for (const auto& region : hot) {
    Tracer::Scope sp(tracer, "scheduler.schedule", profile);
    scheduler::Problem problem = feedback::make_problem(res.program, region.stmts);
    scheduler::ScheduleResult sr = scheduler::schedule(problem);
    s["scheduler.schedule_ms"] += sp.end();
    s["scheduler.groups"] += static_cast<double>(sr.groups.size());
    s["scheduler.problem_statements"] +=
        static_cast<double>(problem.statements.size());
  }

  s["pipeline_ms"] = pipeline_ms;
  return s;
}

}  // namespace perfbench
