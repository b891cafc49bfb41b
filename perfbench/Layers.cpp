//===- perfbench/Layers.cpp - Per-layer replays for the traced run --------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each layer driven on its own through its public functions, over the 12
/// programs at scale 1: the interpreter, guest memory, the recorder and
/// every translate stage, cache install under the cold-start budget, the
/// I-ISA executor and native code on warm fragments (a small dispatch loop
/// here stands in for the VM's), the store, VM construction and the fleet.
/// The VM's dispatch and chaining cannot be called alone; their cost is
/// attributed by subtraction and labelled so.
///
//===----------------------------------------------------------------------===//

#include "Fleet.h"

#include "core/CodeGen.h"
#include "core/Lowering.h"
#include "core/StrandAlloc.h"
#include "core/SuperblockBuilder.h"
#include "core/TranslationCache.h"
#include "core/Translator.h"
#include "core/UsageAnalysis.h"
#include "iisa/Executor.h"
#include "interp/Interpreter.h"
#include "native/NativeCompiler.h"
#include "native/NativeEmitter.h"
#include "native/NativeExec.h"
#include "native/NativeStore.h"
#include "persist/CacheStore.h"
#include "persist/Fingerprint.h"
#include "workloads/Workloads.h"

#include <map>
#include <memory>
#include <set>

using namespace ildp;
using namespace perfbench;

namespace {

double nsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::nano>(B - A).count();
}

uint64_t imageFingerprint(const Program &P) {
  GuestMemory Mem;
  serve::buildGuestMemory(P.Image, Mem);
  return persist::fingerprint(Mem, P.Image.EntryPc, dbt::DbtConfig());
}

/// A program's recorded superblocks, with the interpreter steps that
/// produced each one (so recording can be replayed and timed alone).
struct Recorded {
  std::vector<std::vector<StepInfo>> Steps;
  std::vector<dbt::Superblock> Blocks;
};

/// Entries a cold default-config VM translates for \p P.
std::set<uint64_t> hotEntries(const Program &P) {
  GuestMemory Mem;
  serve::buildGuestMemory(P.Image, Mem);
  vm::VirtualMachine Vm(Mem, P.Image.EntryPc, vm::VmConfig());
  Vm.run();
  std::set<uint64_t> Entries;
  for (const auto &F : Vm.tcache().fragments())
    Entries.insert(F->EntryVAddr);
  return Entries;
}

/// Interprets \p P and records one superblock at the first arrival at each
/// hot entry, exactly as the VM's recorder sees it.
Recorded record(const Program &P) {
  std::set<uint64_t> Entries = hotEntries(P);
  Recorded Out;
  GuestMemory Mem;
  serve::buildGuestMemory(P.Image, Mem);
  Interpreter Interp(Mem);
  Interp.state().Pc = P.Image.EntryPc;
  const unsigned MaxInsts = dbt::DbtConfig().MaxSuperblockInsts;
  for (;;) {
    uint64_t Pc = Interp.state().Pc;
    if (Entries.erase(Pc)) {
      dbt::SuperblockBuilder B(Pc, MaxInsts);
      std::vector<StepInfo> Steps;
      StepInfo Info;
      do {
        Info = Interp.step();
        Steps.push_back(Info);
      } while (B.append(Info) == dbt::SuperblockBuilder::Status::Continue &&
               Info.Status == StepStatus::Ok);
      if (Info.Status != StepStatus::Ok)
        return Out; // Halted inside a recording: the program is done.
      dbt::Superblock Sb = B.take();
      if (!Sb.Insts.empty()) {
        Out.Steps.push_back(std::move(Steps));
        Out.Blocks.push_back(std::move(Sb));
      }
      continue;
    }
    if (Interp.step().Status != StepStatus::Ok)
      return Out;
  }
}

/// Fragments of one program as a warm VM sees them, plus the native code
/// attached to each (when the native store has an object for its body).
struct WarmImage {
  dbt::TranslationCache Cache;
  std::map<const dbt::Fragment *, native::NativeCode> Native;
};

struct ExecTally {
  double IisaNs = 0, NativeNs = 0;
  uint64_t IisaInsts = 0, NativeInsts = 0;
};

/// The small dispatch loop: interpret until translated code is reached,
/// then run fragments (natively when \p UseNative and code is attached),
/// following exits through the cache. Times only the executor (or native)
/// calls. Returns false if the final state differs from the reference.
bool replayExecution(const Program &P, WarmImage &W, bool UseNative,
                     ExecTally &Tally) {
  GuestMemory Mem;
  serve::buildGuestMemory(P.Image, Mem);
  Interpreter Interp(Mem);
  Interp.state().Pc = P.Image.EntryPc;
  iisa::IExecState ES;
  for (;;) {
    dbt::Fragment *Frag = W.Cache.lookup(Interp.state().Pc);
    if (!Frag) {
      StepInfo Info = Interp.step();
      if (Info.Status == StepStatus::Halted)
        break;
      if (Info.Status != StepStatus::Ok)
        return false;
      continue;
    }
    ES.loadArchState(Interp.state());
    for (;;) {
      auto NatIt = UseNative ? W.Native.find(Frag) : W.Native.end();
      iisa::IExit Exit;
      Clock::time_point A = Clock::now();
      if (NatIt != W.Native.end()) {
        Exit = native::runFragment(NatIt->second, ES, Mem, Frag->Body);
        Tally.NativeNs += nsBetween(A, Clock::now());
        Tally.NativeInsts += Exit.InstIndex + 1;
      } else {
        Exit = iisa::execute(Frag->Body.data(), Frag->Body.size(), ES, Mem,
                             nullptr);
        Tally.IisaNs += nsBetween(A, Clock::now());
        Tally.IisaInsts += Exit.InstIndex + 1;
      }
      if (Exit.K == iisa::IExit::Kind::Trap)
        return false;
      if (Exit.K == iisa::IExit::Kind::Halt) {
        ArchState Arch = ES.toArchState();
        Arch.Pc = Frag->Body[Exit.InstIndex].VAddr;
        return Arch == P.RefArch;
      }
      dbt::Fragment *Next = W.Cache.lookup(Exit.VTarget);
      if (!Next) {
        ArchState Arch = ES.toArchState();
        Arch.Pc = Exit.VTarget;
        Interp.state() = Arch;
        break;
      }
      Frag = Next;
    }
  }
  return Interp.state() == P.RefArch;
}

void reportMedian(Report &R, const char *Name, std::vector<double> Samples,
                  const char *Unit, const std::string &What) {
  R.metric(Name, median(Samples), Unit,
           What + ", median of " + std::to_string(Samples.size()));
}

} // namespace

void perfbench::runLayerReplays(const Options &Opt, Report &R, Tracer &T,
                                bool FleetMeasured) {
  R.info("layer replays (12 programs, scale 1):");
  Scope All(T, "replay");
  const bool Toolchain = native::hostCompiler().found();
  const std::vector<unsigned> Scales(workloads::workloadNames().size(), 1);
  std::vector<Program> Progs =
      buildPrograms(workloads::workloadNames(), Scales);
  SplitMix Rand(Opt.Seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  std::vector<uint64_t> Fps;
  for (const Program &P : Progs)
    Fps.push_back(imageFingerprint(P));

  const std::string IisaStore =
      seedSharedStore(Progs, Opt.TmpDir + "/layer-iisa.tstore", R, T);
  const std::string NativeStore = Opt.TmpDir + "/layer-native.tstore";
  if (Toolchain)
    for (const Program &P : Progs)
      convergeNative(P, NativeStore, R, T);

  // ---- interp ----
  {
    Scope S(T, "replay.interp");
    double Ms = 0;
    uint64_t Insts = 0;
    for (int Rep = 0; Rep != 3; ++Rep)
      for (const Program &P : Progs) {
        RunOutcome O = interpRun(P, T);
        checkRun(R, P, "interpreter replay", O);
        Ms += O.WallMs;
        Insts += O.GuestInsts;
      }
    R.metric("interp.ns_per_inst", Ms * 1e6 / double(Insts), "ns",
             "Interpreter::run time / retired, " + std::to_string(Insts) +
                 " insts");
  }

  // ---- mem ----
  {
    Scope S(T, "replay.mem");
    constexpr size_t Ops = 200'000;
    double LoadNs = 0, StoreNs = 0;
    uint64_t Pages = 0, Sink = 0, LoadOps = 0, StoreOps = 0;
    for (const Program &P : Progs) {
      GuestMemory Mem;
      serve::buildGuestMemory(P.Image, Mem);
      std::vector<uint64_t> Bases = Mem.mappedPageBases();
      Pages += Bases.size();
      std::vector<uint64_t> Addrs(Ops);
      for (uint64_t &A : Addrs)
        A = Bases[Rand.below(Bases.size())] +
            8 * Rand.below(GuestMemory::PageSize / 8);
      Clock::time_point A0 = Clock::now();
      for (uint64_t Addr : Addrs)
        Sink += Mem.load(Addr, 8).Value;
      Clock::time_point A1 = Clock::now();
      for (uint64_t Addr : Addrs)
        Sink += uint64_t(Mem.store(Addr, Addr, 8));
      Clock::time_point A2 = Clock::now();
      LoadNs += nsBetween(A0, A1);
      StoreNs += nsBetween(A1, A2);
      LoadOps += Ops;
      StoreOps += Ops;
    }
    R.metric("mem.load_ns", LoadNs / double(LoadOps), "ns",
             "GuestMemory::load, 8-byte, seeded over mapped pages, n=" +
                 std::to_string(LoadOps));
    R.metric("mem.store_ns", StoreNs / double(StoreOps), "ns",
             "GuestMemory::store, n=" + std::to_string(StoreOps));
    R.metric("mem.pages", double(Pages), "count",
             "mapped pages over the 12 programs (checksum " +
                 std::to_string(Sink % 1000) + ")");
  }

  // ---- core ----
  std::vector<Recorded> Recs;
  std::vector<std::vector<dbt::Fragment>> Translated(Progs.size());
  {
    Scope S(T, "replay.core");
    for (const Program &P : Progs)
      Recs.push_back(record(P));
    const dbt::DbtConfig Config;
    const dbt::ChainEnv Env;
    constexpr int Reps = 20;
    double RecordNs = 0, LowerNs = 0, UsageNs = 0, StrandsNs = 0,
           CodegenNs = 0, TranslateNs = 0;
    uint64_t Blocks = 0, Uops = 0, IisaInsts = 0, VInsts = 0;
    for (int Rep = 0; Rep != Reps; ++Rep) {
      for (size_t I = 0; I != Recs.size(); ++I) {
        for (size_t K = 0; K != Recs[I].Blocks.size(); ++K) {
          const dbt::Superblock &Sb = Recs[I].Blocks[K];
          const std::vector<StepInfo> &Steps = Recs[I].Steps[K];
          Clock::time_point C0 = Clock::now();
          dbt::SuperblockBuilder B(Sb.EntryVAddr, Config.MaxSuperblockInsts);
          for (const StepInfo &Info : Steps)
            if (B.append(Info) == dbt::SuperblockBuilder::Status::Done)
              break;
          dbt::Superblock Again = B.take();
          Clock::time_point C1 = Clock::now();
          dbt::Expected<dbt::LoweredBlock> Lowered = dbt::lower(Sb, Config);
          Clock::time_point C2 = Clock::now();
          if (!Lowered || Again.Insts.size() != Sb.Insts.size()) {
            R.incorrect("core replay: lowering/recording failed");
            return;
          }
          dbt::LoweredBlock Block = Lowered.take();
          dbt::TranslateStatus Usage = dbt::analyzeUsage(Block, Config);
          Clock::time_point C3 = Clock::now();
          dbt::Expected<dbt::StrandAllocResult> Alloc =
              dbt::formStrandsAndAllocate(Block, Config);
          Clock::time_point C4 = Clock::now();
          if (Usage != dbt::TranslateStatus::Ok || !Alloc) {
            R.incorrect("core replay: usage/strand stage failed");
            return;
          }
          dbt::StrandAllocResult A = Alloc.take();
          dbt::Expected<dbt::Fragment> Frag =
              dbt::generateCode(Sb, Block, &A, Config, Env);
          Clock::time_point C5 = Clock::now();
          dbt::Expected<dbt::TranslationResult> Whole =
              dbt::translate(Sb, Config, Env);
          Clock::time_point C6 = Clock::now();
          if (!Frag || !Whole) {
            R.incorrect("core replay: codegen/translate failed");
            return;
          }
          RecordNs += nsBetween(C0, C1);
          LowerNs += nsBetween(C1, C2);
          UsageNs += nsBetween(C2, C3);
          StrandsNs += nsBetween(C3, C4);
          CodegenNs += nsBetween(C4, C5);
          TranslateNs += nsBetween(C5, C6);
          ++Blocks;
          if (Rep == 0) {
            Uops += Block.List.Uops.size();
            IisaInsts += Frag.take().Body.size();
            VInsts += Block.SourceInsts;
            Translated[I].push_back(Whole.take().Frag);
          }
        }
      }
    }
    std::string PerSb =
        "per superblock, " + std::to_string(Blocks / Reps) + " superblocks x " +
        std::to_string(Reps);
    R.metric("core.record_us", RecordNs / 1e3 / double(Blocks), "us",
             "SuperblockBuilder::append " + PerSb);
    R.metric("core.lower_us", LowerNs / 1e3 / double(Blocks), "us",
             "lower " + PerSb);
    R.metric("core.usage_us", UsageNs / 1e3 / double(Blocks), "us",
             "analyzeUsage " + PerSb);
    R.metric("core.strands_us", StrandsNs / 1e3 / double(Blocks), "us",
             "formStrandsAndAllocate " + PerSb);
    R.metric("core.codegen_us", CodegenNs / 1e3 / double(Blocks), "us",
             "generateCode " + PerSb);
    R.metric("core.translate_us", TranslateNs / 1e3 / double(Blocks), "us",
             "translate (all stages) " + PerSb);
    R.metric("core.uops_per_vinst", double(Uops) / double(VInsts), "ratio",
             "uops after lowering / source insts (exact)");
    R.metric("core.iisa_per_vinst", double(IisaInsts) / double(VInsts),
             "ratio", "I-ISA insts after codegen / source insts (exact)");

    // Install under the cold-start budget: every install may evict and
    // unchain. Entries already resident are skipped (install requires a
    // new entry).
    std::vector<const dbt::Fragment *> Pool;
    for (const auto &Frags : Translated)
      for (const dbt::Fragment &F : Frags)
        Pool.push_back(&F);
    dbt::TranslationCache Cache;
    Cache.setByteBudget(ColdBudgetBytes);
    double InstallNs = 0;
    uint64_t Installs = 0;
    for (int Rep = 0; Rep != 200; ++Rep)
      for (size_t K : shuffledOrder(Pool.size(), Rand)) {
        if (Cache.contains(Pool[K]->EntryVAddr))
          continue;
        dbt::Fragment Copy = *Pool[K];
        Clock::time_point I0 = Clock::now();
        Cache.install(std::move(Copy));
        InstallNs += nsBetween(I0, Clock::now());
        ++Installs;
        Cache.reclaimEvicted();
      }
    R.metric("core.install_us", InstallNs / 1e3 / double(Installs), "us",
             "TranslationCache::install at " +
                 std::to_string(ColdBudgetBytes) + " bytes, " +
                 std::to_string(Cache.evictionCount()) + " evictions, n=" +
                 std::to_string(Installs));

    if (!R.find("core.translations")) {
      // Phase A of cold-start, once, for its counts.
      vm::VmConfig A;
      A.CodeCacheBytes = ColdBudgetBytes;
      uint64_t Xl = 0, Ev = 0, Re = 0;
      for (const Program &P : Progs) {
        RunOutcome O = vmRun(P, A, T);
        checkRun(R, P, "budgeted replay", O, /*CountExact=*/false);
        Xl += O.Stats.get("dbt.fragments");
        Ev += O.Stats.get("cache.evictions");
        Re += O.Stats.get("cache.retranslations");
      }
      R.metric("core.translations", double(Xl), "count",
               "cold-start phase A fragments translated");
      R.metric("core.evictions", double(Ev), "count",
               "cold-start phase A evictions");
      R.metric("core.retranslate_ratio", Xl ? double(Re) / double(Xl) : 0,
               "ratio", "re-translations of evicted entries / translations");
    }
  }

  // ---- persist ----
  persist::CacheStore Shared;
  {
    Scope S(T, "replay.persist");
    std::vector<double> OpenMs, LookupMs, SaveMs;
    for (int Rep = 0; Rep != 10; ++Rep) {
      persist::CacheStore St;
      Clock::time_point A = Clock::now();
      persist::StoreStatus Status = St.open(IisaStore);
      OpenMs.push_back(msSince(A));
      if (Status != persist::StoreStatus::Ok)
        R.incorrect("layer store did not open");
    }
    if (Shared.openReadOnly(IisaStore) != persist::StoreStatus::Ok)
      R.incorrect("layer store did not open read-only");
    for (int Rep = 0; Rep != 5; ++Rep)
      for (uint64_t Fp : Fps) {
        std::vector<dbt::Fragment> Frags;
        Clock::time_point A = Clock::now();
        persist::StoreStatus Status = Shared.lookup(Fp, Frags);
        LookupMs.push_back(msSince(A));
        if (Status != persist::StoreStatus::Ok)
          R.incorrect("layer store lookup failed");
      }
    for (int Rep = 0; Rep != 5; ++Rep) {
      persist::CacheStore St;
      St.open(IisaStore);
      std::string Path =
          Opt.TmpDir + "/layer-save-" + std::to_string(Rep) + ".tstore";
      Clock::time_point A = Clock::now();
      persist::SaveMergeResult Saved = St.saveMerged(Path);
      SaveMs.push_back(msSince(A));
      if (!Saved.Saved)
        R.incorrect("saveMerged failed");
      std::remove(Path.c_str());
    }
    reportMedian(R, "persist.open_ms", OpenMs, "ms", "CacheStore::open");
    reportMedian(R, "persist.lookup_ms", LookupMs, "ms",
                 "CacheStore::lookup (per-image decode)");
    reportMedian(R, "persist.save_ms", SaveMs, "ms", "CacheStore::saveMerged");
    R.metric("persist.store_bytes", double(Shared.totalPayloadBytes()),
             "bytes", std::to_string(Shared.imageCount()) + " images");
  }

  // ---- iisa / native: executor and native code on warm fragments ----
  {
    Scope S(T, "replay.exec");
    std::vector<std::unique_ptr<WarmImage>> Warm;
    std::vector<double> LoadMs, EmitUs, CompileMs;
    std::vector<std::string> Sources;
    persist::CacheStore NatStore;
    bool HaveNative =
        Toolchain &&
        NatStore.openReadOnly(NativeStore) == persist::StoreStatus::Ok;
    for (size_t I = 0; I != Progs.size(); ++I) {
      auto W = std::make_unique<WarmImage>();
      std::vector<dbt::Fragment> Frags;
      Shared.lookup(Fps[I], Frags);
      W->Cache.importAll(std::move(Frags));
      std::map<uint64_t, std::vector<uint8_t>> Objs;
      if (HaveNative)
        if (const std::vector<uint8_t> *Raw =
                NatStore.lookupRaw(native::slotFingerprint(Fps[I])))
          native::decodeObjects(*Raw, native::hostCompiler().Checksum, Objs);
      for (const auto &F : W->Cache.fragments()) {
        for (int Rep = 0; Rep != 5; ++Rep) {
          Clock::time_point A = Clock::now();
          native::EmitResult E = native::emitFragmentC(F->Body, F->Variant);
          EmitUs.push_back(msSince(A) * 1e3);
          if (Rep == 0 && E.Ok)
            Sources.push_back(std::move(E.Source));
        }
        auto It = Objs.find(native::fragmentKey(F->Body, F->Variant));
        if (It == Objs.end())
          continue;
        Clock::time_point A = Clock::now();
        std::shared_ptr<native::NativeModule> Mod =
            native::loadModule(It->second);
        LoadMs.push_back(msSince(A));
        if (!Mod) {
          R.incorrect("loadModule failed");
          continue;
        }
        native::NativeCode Code;
        Code.Module = Mod;
        Code.Fn = Mod->entry();
        Code.Meta = native::buildMeta(F->Body);
        W->Native.emplace(F.get(), std::move(Code));
      }
      Warm.push_back(std::move(W));
    }
    ExecTally Tally;
    for (int Rep = 0; Rep != 3; ++Rep)
      for (size_t I = 0; I != Progs.size(); ++I) {
        if (!replayExecution(Progs[I], *Warm[I], false, Tally))
          R.incorrect("I-ISA replay of %s differs", Progs[I].Name.c_str());
        if (!replayExecution(Progs[I], *Warm[I], true, Tally))
          R.incorrect("native replay of %s differs", Progs[I].Name.c_str());
      }
    R.metric("iisa.ns_per_inst", Tally.IisaNs / double(Tally.IisaInsts), "ns",
             "iisa::execute on warm fragments, " +
                 std::to_string(Tally.IisaInsts) + " I-ISA insts");
    reportMedian(R, "native.emit_us", EmitUs, "us",
                 "emitFragmentC per fragment");
    if (HaveNative && Tally.NativeInsts) {
      R.metric("native.ns_per_inst", Tally.NativeNs / double(Tally.NativeInsts),
               "ns",
               "native::runFragment, " + std::to_string(Tally.NativeInsts) +
                   " I-ISA insts");
      reportMedian(R, "native.load_ms", LoadMs, "ms",
                   "loadModule (temp file + dlopen) per object");
      for (size_t K = 0; K != 4 && !Sources.empty(); ++K) {
        const std::string &Src = Sources[Rand.below(Sources.size())];
        Clock::time_point A = Clock::now();
        native::CompileResult C =
            native::compileToObject(native::hostCompiler(), Src);
        CompileMs.push_back(msSince(A));
        if (!C.Ok)
          R.incorrect("host compile failed: %s", C.Diag.c_str());
      }
      reportMedian(R, "native.compile_ms", CompileMs, "ms",
                   "compileToObject per fragment");
    } else {
      const char *Why = "no host C compiler (native.no_toolchain)";
      R.unavailable("native.ns_per_inst", "ns", Why);
      R.unavailable("native.load_ms", "ms", Why);
      R.unavailable("native.compile_ms", "ms", Why);
    }
    if (!R.find("native.compiles")) {
      if (Toolchain) {
        uint64_t Compiles = 0, Dropped = 0;
        for (const Program &P : Progs) {
          vm::VmConfig C = nativeConfig();
          C.PersistPath = Opt.TmpDir + "/layer-cold-native.tstore";
          std::remove(C.PersistPath.c_str());
          RunOutcome O = vmRun(P, C, T);
          std::remove(C.PersistPath.c_str());
          checkRun(R, P, "cold native replay", O);
          Compiles += O.Stats.get("native.compiles");
          Dropped += O.Stats.get("native.pending_drops");
        }
        R.metric("native.compiles", double(Compiles), "count",
                 "cold-start phase B host compiles");
        R.metric("native.dropped", double(Dropped), "count",
                 "cold-start phase B compiles whose fragment was gone");
      } else {
        R.unavailable("native.compiles", "count", "no host C compiler");
        R.unavailable("native.dropped", "count", "no host C compiler");
      }
    }
  }

  // ---- vm: warm I-ISA VMs from the shared store ----
  {
    Scope S(T, "replay.vm");
    std::vector<double> CtorMs, RunMs;
    double RunTotalMs = 0;
    uint64_t Guest = 0, Interp = 0, Frag = 0, Dispatch = 0;
    for (int Rep = 0; Rep != 3; ++Rep)
      for (const Program &P : Progs) {
        GuestMemory Mem;
        serve::buildGuestMemory(P.Image, Mem);
        vm::VmConfig C;
        C.SharedStore = &Shared;
        Clock::time_point A = Clock::now();
        vm::VirtualMachine Vm(Mem, P.Image.EntryPc, C);
        Clock::time_point B = Clock::now();
        Vm.run();
        Clock::time_point E = Clock::now();
        CtorMs.push_back(nsBetween(A, B) / 1e6);
        RunMs.push_back(nsBetween(B, E) / 1e6);
        RunTotalMs += nsBetween(B, E) / 1e6;
        const StatisticSet &St = Vm.stats();
        Guest += St.get("vm.guest_insts");
        Interp += St.get("interp.insts");
        Frag += St.get("frag.insts");
        Dispatch += St.get("dispatch.calls");
        if (!(Vm.interpreter().state() == P.RefArch))
          R.incorrect("warm VM replay of %s differs", P.Name.c_str());
      }
    R.metric("vm.interp_share", double(Interp) / double(Guest), "ratio",
             "interp.insts / vm.guest_insts, warm I-ISA");
    R.metric("vm.dispatch_per_kinst", 1e3 * double(Dispatch) / double(Guest),
             "1/kinst", "dispatch.calls per 1000 guest insts, warm I-ISA");
    reportMedian(R, "vm.ctor_ms", CtorMs, "ms",
                 "VirtualMachine ctor with SharedStore");
    reportMedian(R, "vm.run_ms", RunMs, "ms",
                 "VirtualMachine::run, warm I-ISA");
    // By subtraction: run() time not explained by interpreting interp.insts
    // and executing frag.insts at the replayed per-instruction costs is
    // the VM's own dispatch, chaining and accounting.
    const Report::Metric *InterpNs = R.find("interp.ns_per_inst");
    const Report::Metric *IisaNs = R.find("iisa.ns_per_inst");
    double Explained = (InterpNs ? InterpNs->Value : 0) * double(Interp) +
                       (IisaNs ? IisaNs->Value : 0) * double(Frag);
    R.metric("vm.dispatch_ns_per_inst",
             (RunTotalMs * 1e6 - Explained) / double(Guest), "ns",
             "BY SUBTRACTION: (run - interp - executor) / guest insts");
  }

  // ---- serve ----
  {
    Scope S(T, "replay.serve");
    std::vector<double> AcquireMs;
    for (int Rep = 0; Rep != 3; ++Rep)
      for (const Program &P : Progs) {
        Clock::time_point A = Clock::now();
        GuestMemory Mem;
        serve::buildGuestMemory(P.Image, Mem);
        vm::VmConfig C;
        C.SharedStore = &Shared;
        vm::VirtualMachine Vm(Mem, P.Image.EntryPc, C);
        AcquireMs.push_back(msSince(A));
      }
    reportMedian(R, "serve.acquire_ms", AcquireMs, "ms",
                 "buildGuestMemory + VM ctor with SharedStore");
    if (!FleetMeasured) {
      // A short open loop at the reference rate for the serve metrics.
      serve::ExecutionScheduler Sched(fleetConfig(IisaStore));
      std::vector<uint64_t> FleetFps;
      for (const Program &P : Progs)
        FleetFps.push_back(Sched.fleet().registerImage(P.Image));
      FleetRun Run = runLadder(Sched, Progs, FleetFps,
                               {{FleetReferenceRate, 1.0}}, 2.0,
                               Opt.Seed, T);
      Sched.shutdown(/*FinishQueued=*/true);
      checkAndReportFleet(Run, Progs, 0, 0, Sched, R);
    }
  }
  std::remove(IisaStore.c_str());
  std::remove(NativeStore.c_str());
}
