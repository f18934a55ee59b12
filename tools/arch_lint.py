#!/usr/bin/env python3
"""Architecture linter for the aalign repo (CI: the lint job).

Twelve checks. The first eleven read the working tree, the first eight
driven by the machine-readable blocks in docs/architecture.md ("Checked
invariants") and the eleventh by the lock hierarchy in
docs/concurrency.md, so the documentation and the linter cannot drift
apart; the twelfth reads a compiled build:

  1. layer-dag    - #include "x/..." edges between src/ layers must follow
                    the DAG declared in the <!-- arch-lint:layer-dag -->
                    block (a layer may always include itself). Layers on
                    disk and layers in the block must agree.
  2. no-include   - "file -> layer" lines in the
                    <!-- arch-lint:no-include --> block forbid a specific
                    src/ file from including a layer even when its
                    layer-dag edge would allow it (e.g. the fleet gateway
                    must never include search/). Listed files must exist.
  3. intrinsic    - raw x86 intrinsics (immintrin.h, _mm*, __m128/256/512)
                    may appear only in src/simd/vec_*.h and
                    src/util/saturate.h.
  4. cancel-poll  - every file listed in the <!-- arch-lint:cancel-poll -->
                    block must exist and contain a CancelToken poll
                    (stop_requested / throw_cancelled).
  5. metric       - every literal metric name registered through obs
                    (counter("..."), histogram("..."), timer("...")) must
                    match the naming regex and be documented in
                    docs/observability.md (backtick spans; {a,b} brace
                    groups expand, a trailing * is a prefix wildcard).
                    Names assembled at runtime from a prefix are outside
                    the literal scan.
  6. raw-sync     - raw std:: synchronization primitives (std::mutex,
                    std::condition_variable and friends) may appear only
                    under src/util/ (where aalign::Mutex / aalign::CondVar
                    wrap them with thread-safety annotations and
                    lock-order hooks). Everything else must use the
                    annotated wrappers from util/mutex.h.
  7. mutex-guard  - a src/ file outside util/ that declares an
                    aalign::Mutex member must carry at least one
                    AALIGN_GUARDED_BY / AALIGN_REQUIRES annotation: a
                    lock that guards nothing visible to the analysis is
                    either dead or hiding its contract.
  8. test-labels  - every tests/*.cpp that spawns threads (std::thread /
                    std::jthread / std::async) must be registered in
                    tests/CMakeLists.txt with a label containing
                    "stress", so the TSan CI job (ctest -L stress)
                    exercises it.
  9. reachability - every src/<layer>/<name>.h must be #included by some
                    file under src/, tools/, bench/ or examples/ other
                    than its own <name>.cpp. A module only tests/ reach is
                    dead code: delete it or give it a consumer.
 10. isa-guard    - the backends' compile-time guards (AALIGN_HAVE_<ISA>)
                    may appear only in the dispatch files listed in
                    ISA_GUARD_FILES; everything else reaches a backend
                    through its dispatcher.
 11. lock-levels  - the set of hierarchy levels named by Mutex literals
                    under src/ (Mutex mu{"level"}) must equal the set in
                    the <!-- lock-order:hierarchy --> block of
                    docs/concurrency.md, which test_lock_order replays: a
                    level added in code or deleted from it shows up here.
 12. reach        - (only with --reach BUILD_DIR) every strong (nm 'T')
                    symbol of BUILD_DIR/src/libaalign.a, and every weak
                    one in namespace aalign, must be defined by some
                    executable under BUILD_DIR/{tools,bench,examples}.
                    BUILD_DIR must be configured with
                    CMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections"
                    and CMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections, so a
                    linked executable keeps only the functions it calls.
                    Library code that only tests call is dead: delete it
                    or move it into tests/. The one allowlist reason is
                    "test hook".

Deliberate violations live in tools/arch_lint_allow.txt, one
"<key>  # justification" per line; entries without a justification and
entries that no longer match anything are themselves findings. A `reach`
entry's justification must start with "test hook", and only a run with
--reach judges whether a `reach` entry is stale.

Exit status: 0 when clean, 1 with one line per finding otherwise.

  python3 tools/arch_lint.py [--repo PATH] [--allowlist FILE]
                             [--reach BUILD_DIR] [--self-test]

--self-test synthesizes a mini repo containing one injected violation per
check (for reach, a two-function archive and an executable that calls one
of them, compiled with the system c++) and exits 0 only if the linter
catches all of them.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

from lint_common import REPO as DEFAULT_REPO

ARCH_DOC = os.path.join("docs", "architecture.md")
OBS_DOC = os.path.join("docs", "observability.md")
CONCURRENCY_DOC = os.path.join("docs", "concurrency.md")
LOCK_HIERARCHY_MARKER = "<!-- lock-order:hierarchy"

# Captures "layer/file.h"; the layer is the part before the first '/'.
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([A-Za-z0-9_]+/[^"]+)"',
                        re.MULTILINE)
# Trees whose include edges make a src/ header reachable (tests/ excluded).
CONSUMER_DIRS = ("src", "tools", "bench", "examples")
INTRIN_RE = re.compile(
    r"\b_mm\d*\w*\s*\(|\bimmintrin\.h|\b__m(?:64|128|256|512)[di]?\b")
ISA_GUARD_RE = re.compile(r"\bAALIGN_HAVE_")
# The two runtime resolvers (core/dispatch.cpp for the kernels,
# simd/isa.cpp for the primitives) and the kernel registry: the only src/
# files that decide which backends exist.
ISA_GUARD_FILES = frozenset((
    "simd/isa.cpp",
    "core/dispatch.cpp",
    "core/backends.h",
))
METRIC_RE = re.compile(r'\b(?:counter|histogram|timer)\s*\(\s*"([^"]*)"')
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
BACKTICK_RE = re.compile(r"`([^`]+)`")
CANCEL_POLL_TOKENS = ("stop_requested", "throw_cancelled")
RAW_SYNC_RE = re.compile(
    r"\bstd::(?:recursive_mutex|recursive_timed_mutex|shared_mutex|"
    r"shared_timed_mutex|timed_mutex|mutex|condition_variable_any|"
    r"condition_variable)\b")
MUTEX_MEMBER_RE = re.compile(r"\bMutex\s+\w+\s*[{;(=]")
MUTEX_LEVEL_RE = re.compile(r'\bMutex\s+\w+\s*\{\s*"([^"]+)"\s*\}')
GUARD_ANNOTATION_TOKENS = ("AALIGN_GUARDED_BY", "AALIGN_REQUIRES")
TEST_THREAD_RE = re.compile(r"\bstd::(?:thread|jthread|async)\b")
AALIGN_TEST_RE = re.compile(r"\baalign_test\(\s*(\w+)([^)]*)\)")
# reach: the executables that count as consumers, the archive they link,
# and the CMake cache entries a section-GC build sets.
REACH_EXE_DIRS = ("tools", "bench", "examples")
REACH_ARCHIVE = os.path.join("src", "libaalign.a")
REACH_FLAGS = (
    ("CMAKE_CXX_FLAGS", ("-ffunction-sections", "-fdata-sections")),
    ("CMAKE_EXE_LINKER_FLAGS", ("-Wl,--gc-sections",)),
)
REACH_REASON = "test hook"
# A mangled name in namespace aalign (member, free function or template).
AALIGN_MANGLED_RE = re.compile(r"^_ZN[VKRO]*6aalign")


def iter_src_files(repo):
    srcdir = os.path.join(repo, "src")
    for layer in sorted(os.listdir(srcdir)):
        layerdir = os.path.join(srcdir, layer)
        if not os.path.isdir(layerdir):
            continue
        for name in sorted(os.listdir(layerdir)):
            if name.endswith((".h", ".cpp")):
                yield layer, name, os.path.join(layerdir, name)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def parse_marked_block(text, marker, doc):
    """Return the lines of the fenced block directly following `marker`."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip() != marker:
            continue
        j = i + 1
        while j < len(lines) and not lines[j].startswith("```"):
            if lines[j].strip():
                raise ValueError(
                    f"{doc}: {marker} must be followed by a fenced block")
            j += 1
        if j >= len(lines):
            raise ValueError(f"{doc}: {marker} has no fenced block")
        body = []
        j += 1
        while j < len(lines) and not lines[j].startswith("```"):
            body.append(lines[j])
            j += 1
        if j >= len(lines):
            raise ValueError(f"{doc}: unterminated fence after {marker}")
        return [ln.strip() for ln in body if ln.strip()]
    raise ValueError(f"{doc}: marker {marker} not found")


def parse_layer_dag(block_lines, doc):
    """'layer -> dep1, dep2' lines -> {layer: set(deps)}."""
    dag = {}
    for line in block_lines:
        if "->" not in line:
            raise ValueError(f"{doc}: bad layer-dag line: {line!r}")
        layer, deps = line.split("->", 1)
        layer = layer.strip()
        dag[layer] = {d.strip() for d in deps.split(",") if d.strip()}
    return dag


def parse_no_include(block_lines, doc):
    """'layer/file.ext -> layer1, layer2' lines -> {rel_file: set(layers)}."""
    rules = {}
    for line in block_lines:
        if "->" not in line:
            raise ValueError(f"{doc}: bad no-include line: {line!r}")
        rel, layers = line.split("->", 1)
        rel = rel.strip()
        if "/" not in rel:
            raise ValueError(
                f"{doc}: no-include file {rel!r} must be layer/name.ext")
        rules.setdefault(rel, set()).update(
            l.strip() for l in layers.split(",") if l.strip())
    return rules


def parse_lock_hierarchy(text, doc):
    """Levels of the <!-- lock-order:hierarchy ... --> comment block, one
    per line ('#' lines are comments), as test_lock_order reads them."""
    lines = [ln.strip() for ln in text.splitlines()]
    if LOCK_HIERARCHY_MARKER not in lines:
        raise ValueError(f"{doc}: marker {LOCK_HIERARCHY_MARKER} not found")
    levels = []
    for line in lines[lines.index(LOCK_HIERARCHY_MARKER) + 1:]:
        if line == "-->":
            return levels
        if line and not line.startswith("#"):
            levels.append(line)
    raise ValueError(f"{doc}: unterminated {LOCK_HIERARCHY_MARKER} block")


# ---------------------------------------------------------------------------
# Checks. Each returns a list of (key, message); `key` is the stable
# identity an allowlist entry suppresses.
# ---------------------------------------------------------------------------


def check_layer_dag(repo, dag):
    findings = []
    disk = sorted(
        d for d in os.listdir(os.path.join(repo, "src"))
        if os.path.isdir(os.path.join(repo, "src", d)))
    for layer in disk:
        if layer not in dag:
            findings.append((
                f"layer-dag src/{layer}",
                f"src/{layer}/ exists on disk but is missing from the "
                f"layer-dag block in {ARCH_DOC}",
            ))
    for layer in dag:
        if layer not in disk:
            findings.append((
                f"layer-dag src/{layer}",
                f"layer '{layer}' is declared in {ARCH_DOC} but src/{layer}/ "
                f"does not exist",
            ))
    for layer, name, path in iter_src_files(repo):
        allowed = dag.get(layer, set())
        for inc in INCLUDE_RE.findall(read(path)):
            target = inc.split("/", 1)[0]
            if target == layer or target not in dag:
                continue
            if target not in allowed:
                findings.append((
                    f"layer-dag src/{layer}/{name} -> {target}",
                    f"src/{layer}/{name}: includes \"{target}/...\" but the "
                    f"declared DAG allows {layer} -> "
                    f"{{{', '.join(sorted(allowed)) or ''}}}",
                ))
    return findings


def check_no_include(repo, rules):
    findings = []
    for rel, forbidden in sorted(rules.items()):
        path = os.path.join(repo, "src", rel)
        if not os.path.isfile(path):
            findings.append((
                f"no-include src/{rel}",
                f"src/{rel}: listed in the no-include block of {ARCH_DOC} "
                f"but does not exist",
            ))
            continue
        hit = set()
        for inc in INCLUDE_RE.findall(read(path)):
            target = inc.split("/", 1)[0]
            if target in forbidden and target not in hit:
                hit.add(target)
                findings.append((
                    f"no-include src/{rel} -> {target}",
                    f"src/{rel}: includes \"{target}/...\" but {ARCH_DOC} "
                    f"forbids this file from including {target}/",
                ))
    return findings


def intrinsics_allowed(layer, name):
    if layer == "simd" and name.startswith("vec_") and name.endswith(".h"):
        return True
    return layer == "util" and name == "saturate.h"


def check_intrinsics(repo):
    findings = []
    for layer, name, path in iter_src_files(repo):
        if intrinsics_allowed(layer, name):
            continue
        for lineno, line in enumerate(read(path).splitlines(), 1):
            if INTRIN_RE.search(line):
                findings.append((
                    f"intrinsic src/{layer}/{name}",
                    f"src/{layer}/{name}:{lineno}: raw intrinsic outside "
                    f"src/simd/vec_*.h / src/util/saturate.h: {line.strip()}",
                ))
                break  # one finding per file is enough
    return findings


def check_isa_guards(repo):
    findings = []
    for layer, name, path in iter_src_files(repo):
        if f"{layer}/{name}" in ISA_GUARD_FILES:
            continue
        for lineno, line in enumerate(read(path).splitlines(), 1):
            if ISA_GUARD_RE.search(line):
                findings.append((
                    f"isa-guard src/{layer}/{name}",
                    f"src/{layer}/{name}:{lineno}: backend guard outside "
                    f"the dispatch files: {line.strip()}",
                ))
                break  # one finding per file is enough
    return findings


def check_cancel_poll(repo, rel_files):
    findings = []
    for rel in rel_files:
        path = os.path.join(repo, "src", rel)
        if not os.path.isfile(path):
            findings.append((
                f"cancel-poll src/{rel}",
                f"src/{rel}: listed in the cancel-poll block of {ARCH_DOC} "
                f"but does not exist",
            ))
            continue
        text = read(path)
        if not any(tok in text for tok in CANCEL_POLL_TOKENS):
            findings.append((
                f"cancel-poll src/{rel}",
                f"src/{rel}: no CancelToken poll "
                f"({' / '.join(CANCEL_POLL_TOKENS)}) found",
            ))
    return findings


def expand_braces(spec):
    """'a.{b,c}.d' -> ['a.b.d', 'a.c.d'] (multiple groups expand too)."""
    m = re.search(r"\{([^{}]*)\}", spec)
    if not m:
        return [spec]
    out = []
    for alt in m.group(1).split(","):
        out.extend(
            expand_braces(spec[: m.start()] + alt.strip() + spec[m.end():]))
    return out


def documented_metric_names(obs_text):
    """(exact names, wildcard prefixes) from backtick spans in the doc."""
    exact, prefixes = set(), set()
    for span in BACKTICK_RE.findall(obs_text):
        for name in expand_braces(span):
            if name.endswith("*"):
                prefixes.add(name.rstrip("*").rstrip("."))
            elif METRIC_NAME_RE.match(name):
                exact.add(name)
    return exact, prefixes


def check_metrics(repo, obs_text):
    exact, prefixes = documented_metric_names(obs_text)
    findings = []
    seen = set()
    for layer, name, path in iter_src_files(repo):
        for metric in METRIC_RE.findall(read(path)):
            if metric in seen:
                continue
            seen.add(metric)
            where = f"src/{layer}/{name}"
            if not METRIC_NAME_RE.match(metric):
                findings.append((
                    f"metric {metric}",
                    f"{where}: metric name '{metric}' does not match "
                    f"{METRIC_NAME_RE.pattern}",
                ))
                continue
            documented = metric in exact or any(
                metric == p or metric.startswith(p + ".") for p in prefixes)
            if not documented:
                findings.append((
                    f"metric {metric}",
                    f"{where}: metric '{metric}' is not documented in "
                    f"{OBS_DOC}",
                ))
    return findings


def check_raw_sync(repo):
    """std:: sync primitives belong in util/ only (the annotated wrappers)."""
    findings = []
    for layer, name, path in iter_src_files(repo):
        if layer == "util":
            continue  # util/mutex.h + util/lock_order.cpp wrap the raw types
        for lineno, line in enumerate(read(path).splitlines(), 1):
            if RAW_SYNC_RE.search(line):
                findings.append((
                    f"raw-sync src/{layer}/{name}",
                    f"src/{layer}/{name}:{lineno}: raw std:: sync primitive "
                    f"outside util/ - use aalign::Mutex / aalign::CondVar "
                    f"from util/mutex.h: {line.strip()}",
                ))
                break  # one finding per file is enough
    return findings


def check_mutex_guard(repo):
    """A Mutex member outside util/ must guard something the analysis sees."""
    findings = []
    for layer, name, path in iter_src_files(repo):
        if layer == "util":
            continue
        text = read(path)
        if not MUTEX_MEMBER_RE.search(text):
            continue
        if not any(tok in text for tok in GUARD_ANNOTATION_TOKENS):
            findings.append((
                f"mutex-guard src/{layer}/{name}",
                f"src/{layer}/{name}: declares an aalign::Mutex but carries "
                f"no {' / '.join(GUARD_ANNOTATION_TOKENS)} annotation - "
                f"name the fields it guards (util/thread_annotations.h)",
            ))
    return findings


def check_lock_levels(repo, levels):
    """Mutex level literals under src/ == the documented hierarchy levels."""
    in_code = {}
    for layer, name, path in iter_src_files(repo):
        for m in MUTEX_LEVEL_RE.finditer(read(path)):
            in_code.setdefault(m.group(1), f"src/{layer}/{name}")
    findings = []
    for level in sorted(set(in_code) - set(levels)):
        findings.append((
            f"lock-levels undocumented {level}",
            f"{in_code[level]}: Mutex level '{level}' is missing from the "
            f"lock-order:hierarchy block of {CONCURRENCY_DOC} - add it "
            f"where it nests",
        ))
    for level in sorted(set(levels) - set(in_code)):
        findings.append((
            f"lock-levels stale {level}",
            f"{CONCURRENCY_DOC}: hierarchy level '{level}' names no Mutex "
            f"under src/ - delete it from the block and the level table",
        ))
    return findings


def check_test_labels(repo):
    """Thread-spawning tests must carry a stress label (the TSan job's -L)."""
    findings = []
    tests_dir = os.path.join(repo, "tests")
    cml = os.path.join(tests_dir, "CMakeLists.txt")
    if not os.path.isdir(tests_dir) or not os.path.isfile(cml):
        return findings
    labels = {}
    for m in AALIGN_TEST_RE.finditer(read(cml)):
        label_arg = re.search(r"\bLABEL\s+(\S+)", m.group(2))
        labels[m.group(1)] = label_arg.group(1) if label_arg else "tier1"
    for fname in sorted(os.listdir(tests_dir)):
        if not fname.endswith(".cpp"):
            continue
        if not TEST_THREAD_RE.search(read(os.path.join(tests_dir, fname))):
            continue
        label = labels.get(fname[: -len(".cpp")])
        if label is None:
            continue  # helper TU compiled into another registered test
        if "stress" not in label:
            findings.append((
                f"test-labels tests/{fname}",
                f"tests/{fname}: spawns threads (std::thread / jthread / "
                f"async) but is registered with label '{label}' - use "
                f"LABEL tier1_stress so the TSan job (ctest -L stress) "
                f"runs it",
            ))
    return findings


def check_reachability(repo):
    """A src/ header needs an includer outside tests/ besides its own .cpp."""
    includers = {}
    for top in CONSUMER_DIRS:
        for root, _, names in os.walk(os.path.join(repo, top)):
            for name in names:
                if not name.endswith((".h", ".cpp")):
                    continue
                path = os.path.join(root, name)
                rel = os.path.relpath(path, repo).replace(os.sep, "/")
                for target in INCLUDE_RE.findall(read(path)):
                    includers.setdefault(target, set()).add(rel)
    findings = []
    for layer, name, _ in iter_src_files(repo):
        if not name.endswith(".h"):
            continue
        own_cpp = f"src/{layer}/{name[:-len('.h')]}.cpp"
        if includers.get(f"{layer}/{name}", set()) - {own_cpp}:
            continue
        findings.append((
            f"reachability src/{layer}/{name}",
            f"src/{layer}/{name}: no includer under "
            f"{', '.join(d + '/' for d in CONSUMER_DIRS)} besides its own "
            f".cpp - only tests reach it; delete the module or give it a "
            f"consumer",
        ))
    return findings


def cmake_cache(build):
    """{name: value} of BUILD/CMakeCache.txt ("NAME:TYPE=value" lines)."""
    entries = {}
    path = os.path.join(build, "CMakeCache.txt")
    if not os.path.isfile(path):
        return entries
    for line in read(path).splitlines():
        m = re.match(r"^([A-Za-z_][\w-]*):[A-Z]+=(.*)$", line)
        if m:
            entries[m.group(1)] = m.group(2)
    return entries


def defined_symbols(paths):
    """{mangled name: nm type letter} over the symbols `paths` define."""
    out = subprocess.run(["nm", "--defined-only", *paths], check=True,
                         capture_output=True, text=True).stdout
    syms = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3:
            syms.setdefault(fields[2], fields[1])
    return syms


def executables(build):
    """ELF executables under BUILD/{tools,bench,examples} (CMakeFiles/
    skipped): the consumers whose symbols count as reached."""
    for top in REACH_EXE_DIRS:
        for root, dirs, names in os.walk(os.path.join(build, top)):
            dirs[:] = sorted(d for d in dirs if d != "CMakeFiles")
            for name in sorted(names):
                path = os.path.join(root, name)
                if not os.access(path, os.X_OK):
                    continue
                with open(path, "rb") as f:
                    if f.read(4) == b"\x7fELF":
                        yield path


def check_reach(build):
    """Library symbols no shipped executable keeps after section GC."""
    cache = cmake_cache(build)
    for var, flags in REACH_FLAGS:
        missing = [f for f in flags if f not in cache.get(var, "").split()]
        if missing:
            raise ValueError(
                f"reach: {build} is not a section-GC build ({var} lacks "
                f"{' '.join(missing)}); configure it with "
                f"-DCMAKE_CXX_FLAGS=\"-ffunction-sections -fdata-sections\" "
                f"-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
    archive = os.path.join(build, REACH_ARCHIVE)
    if not os.path.isfile(archive):
        raise ValueError(f"reach: {archive} does not exist")
    exes = list(executables(build))
    if not exes:
        raise ValueError(
            f"reach: no executable under {build}/{{{','.join(REACH_EXE_DIRS)}}}")
    kept = defined_symbols(exes)
    unreached = sorted(
        sym for sym, kind in defined_symbols([archive]).items()
        if sym not in kept and (
            kind == "T" or (kind in "WV" and AALIGN_MANGLED_RE.match(sym))))
    if not unreached:
        return []
    names = subprocess.run(["c++filt"], input="\n".join(unreached) + "\n",
                           check=True, capture_output=True,
                           text=True).stdout.splitlines()
    return [(
        f"reach {name}",
        f"reach: {name} is in {REACH_ARCHIVE} but no executable under "
        f"{', '.join(d + '/' for d in REACH_EXE_DIRS)} keeps it - delete "
        f"it or move it into tests/",
    ) for name in sorted(set(names))]


# ---------------------------------------------------------------------------
# Allowlist
# ---------------------------------------------------------------------------


def load_allowlist(path):
    """{key: justification}; keys must carry a '# why' justification."""
    entries, errors = {}, []
    if path is None or not os.path.isfile(path):
        return entries, errors
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, justification = line.partition("#")
            key = key.strip()
            justification = justification.strip()
            if not justification:
                errors.append(
                    f"{os.path.basename(path)}:{lineno}: allowlist entry "
                    f"'{key}' has no '# justification'")
            entries[key] = justification
    return entries, errors


def collect_findings(repo):
    """Every check's findings; ValueError when a doc block is malformed."""
    arch_text = read(os.path.join(repo, ARCH_DOC))
    dag = parse_layer_dag(
        parse_marked_block(arch_text, "<!-- arch-lint:layer-dag -->",
                           ARCH_DOC), ARCH_DOC)
    no_include = parse_no_include(
        parse_marked_block(arch_text, "<!-- arch-lint:no-include -->",
                           ARCH_DOC), ARCH_DOC)
    poll_files = parse_marked_block(
        arch_text, "<!-- arch-lint:cancel-poll -->", ARCH_DOC)
    lock_levels = parse_lock_hierarchy(
        read(os.path.join(repo, CONCURRENCY_DOC)), CONCURRENCY_DOC)

    findings = []
    findings += check_layer_dag(repo, dag)
    findings += check_no_include(repo, no_include)
    findings += check_intrinsics(repo)
    findings += check_cancel_poll(repo, poll_files)
    findings += check_metrics(repo, read(os.path.join(repo, OBS_DOC)))
    findings += check_raw_sync(repo)
    findings += check_mutex_guard(repo)
    findings += check_lock_levels(repo, lock_levels)
    findings += check_test_labels(repo)
    findings += check_reachability(repo)
    findings += check_isa_guards(repo)
    return findings


def run_checks(repo, allow_path, reach_build=None):
    """Every finding the allowlist does not excuse. `reach` findings (and
    stale `reach` entries) only when `reach_build` names a build."""
    errors = []
    try:
        findings = collect_findings(repo)
        if reach_build is not None:
            findings += check_reach(reach_build)
    except ValueError as e:
        return [str(e)]

    allow, allow_errors = load_allowlist(allow_path)
    errors += allow_errors
    for key, why in sorted(allow.items()):
        if key.startswith("reach ") and not why.startswith(REACH_REASON):
            errors.append(
                f"allowlist entry '{key}': the only reason a reach entry "
                f"may give is '{REACH_REASON}', not '{why}'")
    used = set()
    for key, message in findings:
        if key in allow:
            used.add(key)
        else:
            errors.append(message)
    for key in sorted(set(allow) - used):
        if key.startswith("reach ") and reach_build is None:
            continue
        errors.append(
            f"allowlist entry '{key}' matches nothing - remove it "
            f"(stale suppressions hide regressions)")
    return errors


# ---------------------------------------------------------------------------
# Self-test: a synthetic tree with one injected violation per check; the
# linter must catch every one of them (the lint job runs this before
# trusting the real result).
# ---------------------------------------------------------------------------

SELF_TEST_ARCH = """# mini architecture
<!-- arch-lint:layer-dag -->
```
util    ->
core    -> util
filter  -> util
search  -> filter, core, util
service -> search, util
obs     -> util
```
<!-- arch-lint:no-include -->
```
service/gw.cpp -> search
service/gone.cpp -> core
```
<!-- arch-lint:cancel-poll -->
```
core/kernels.h
```
"""

# Mirrors the real doc's idioms: exact spans, a `phase.*` prefix
# wildcard, and a brace group (how the filter.* family is documented).
SELF_TEST_OBS = ("documented: `documented.name`, `phase.*`, and "
                 "`filter.{candidates,survivors}`\n")

# Documents the level of src/search/pool_lock.h and a level no Mutex has
# any more; src/service/unannotated.h's level is left out.
SELF_TEST_CONCURRENCY = """# mini concurrency
<!-- lock-order:hierarchy
search.pool
# a comment line
svc.gone
-->
"""

SELF_TEST_FILES = {
    # reverse edge: core may not include search.
    "src/core/bad_include.h": '#include "search/pool.h"\n',
    # raw intrinsic outside simd/vec_*.h.
    "src/core/raw_simd.cpp": "void f() { __m256i x; (void)x; }\n",
    # backend guard outside the dispatch files; the dispatcher's own is fine.
    "src/core/guarded.cpp": "#if defined(AALIGN_HAVE_AVX2)\n#endif\n",
    "src/core/dispatch.cpp": "#if defined(AALIGN_HAVE_AVX2)\n#endif\n",
    # the filter reaches its primitive through simd::primitives.
    "src/filter/sig_scan.cpp": "#if defined(AALIGN_HAVE_AVX2)\n#endif\n",
    # listed in cancel-poll but polls nothing.
    "src/core/kernels.h": "inline void kernel() { /* no poll */ }\n",
    # one bad name, one undocumented name, two fine ones.
    "src/obs/use.cpp": (
        'void g() { counter("BadName"); counter("undocumented.metric");'
        ' counter("documented.name"); timer("phase.anything"); }\n'),
    # filter layer: the search -> filter edge is legal, the brace-group
    # documented counters pass, and an undocumented sibling is caught.
    "src/filter/sig.cpp": (
        'void s() { counter("filter.candidates");'
        ' counter("filter.survivors");'
        ' counter("filter.undocumented_stat"); }\n'),
    # stage-one layering violation: filter may not reach up into search.
    "src/filter/bad_up.h": '#include "search/pool.h"\n',
    # the DAG edge service -> search is legal, but the no-include block
    # forbids exactly this file from taking it (the gateway invariant);
    # service/gone.cpp is listed in the block yet absent on disk.
    "src/service/gw.cpp": '#include "search/pool.h"\ninline void gw() {}\n',
    "src/search/pool.h": '#include "filter/sig.h"\ninline void pool() {}\n',
    "src/filter/sig.h": "inline void sig() {}\n",
    "src/util/buf.h": "inline void buf() {}\n",
    # raw std::mutex member outside util/ (the annotated-wrapper invariant).
    "src/search/raw_mu.h": (
        "#include <mutex>\nstruct RawGuard { std::mutex mu_; };\n"),
    # an aalign::Mutex member with no GUARDED_BY/REQUIRES in the file: the
    # lock's contract is invisible to the thread-safety analysis.
    "src/service/unannotated.h": (
        '#include "util/mutex.h"\n'
        "struct Latch { aalign::Mutex mu_{\"svc.latch\"}; int state_ = 0; };\n"),
    # a documented lock level (the hierarchy block lists search.pool).
    "src/search/pool_lock.h": (
        '#include "util/mutex.h"\n'
        "struct Pool { aalign::Mutex mu{\"search.pool\"}; "
        "int n AALIGN_GUARDED_BY(mu) = 0; };\n"),
    # raw std::mutex inside util/ is sanctioned (the wrapper layer itself).
    "src/util/wrap.h": "#include <mutex>\nstruct W { std::mutex raw_; };\n",
    # test-labels: test_threads spawns a thread but is registered plain
    # tier1; test_ok does the same under a stress label and passes.
    "tests/CMakeLists.txt": (
        "aalign_test(test_threads)\n"
        "aalign_test(test_ok LABEL tier1_stress TIMEOUT 600)\n"),
    "tests/test_threads.cpp": (
        "#include <thread>\nvoid t() { std::thread w; w.join(); }\n"),
    "tests/test_ok.cpp": (
        "#include <thread>\nvoid t() { std::thread w; w.join(); }\n"),
    # reachability: orphan.h is included by its own .cpp and a test only;
    # the tools/ consumer reaches every other mini-tree header.
    "src/core/orphan.h": "inline int orphan() { return 0; }\n",
    "src/core/orphan.cpp": '#include "core/orphan.h"\n',
    "tests/test_orphan.cpp": '#include "core/orphan.h"\n',
    "tools/cli.cpp": "".join(
        f'#include "{h}"\n' for h in (
            "core/bad_include.h", "core/kernels.h", "filter/bad_up.h",
            "filter/sig.h", "search/pool.h", "search/pool_lock.h",
            "search/raw_mu.h",
            "service/unannotated.h", "util/buf.h", "util/wrap.h")),
}

SELF_TEST_EXPECT = [
    "layer-dag src/core/bad_include.h -> search",
    "layer-dag src/filter/bad_up.h -> search",
    "no-include src/service/gw.cpp -> search",
    "no-include src/service/gone.cpp",
    "intrinsic src/core/raw_simd.cpp",
    "cancel-poll src/core/kernels.h",
    "metric BadName",
    "metric undocumented.metric",
    "metric filter.undocumented_stat",
    "raw-sync src/search/raw_mu.h",
    "mutex-guard src/service/unannotated.h",
    "lock-levels undocumented svc.latch",
    "lock-levels stale svc.gone",
    "test-labels tests/test_threads.cpp",
    "reachability src/core/orphan.h",
    "isa-guard src/core/guarded.cpp",
    "isa-guard src/filter/sig_scan.cpp",
]


# reach: a two-function archive and one executable that calls only one of
# them, built the way the check requires.
SELF_TEST_REACH_LIB = "int kept_fn() { return 1; }\nint dead_fn() { return 2; }\n"
SELF_TEST_REACH_EXE = "int kept_fn();\nint main() { return kept_fn() - 1; }\n"
SELF_TEST_REACH_EXPECT = ["reach dead_fn()"]
# Allowlists against that build, each with the reach errors it must give
# with --reach and without: a live test hook passes, a stale entry is
# only judged with --reach, and a reason other than "test hook" is always
# an error.
SELF_TEST_REACH_ALLOW = (
    ("reach dead_fn()  # test hook: test_mini\n"
     "reach gone_fn()  # test hook: test_mini\n",
     ["'reach gone_fn()' matches nothing"], []),
    ("reach dead_fn()  # handy\n",
     ["'reach dead_fn()': the only reason"],
     ["'reach dead_fn()': the only reason"]),
)


def build_reach_fixture(tmp):
    """The reach fixture's build dir (src/libaalign.a, tools/cli)."""
    build = os.path.join(tmp, "build")
    for sub in ("src", "tools"):
        os.makedirs(os.path.join(build, sub))
    with open(os.path.join(build, "CMakeCache.txt"), "w",
              encoding="utf-8") as f:
        for var, flags in REACH_FLAGS:
            f.write(f"{var}:STRING={' '.join(flags)}\n")
    lib_src = os.path.join(tmp, "reach_lib.cpp")
    exe_src = os.path.join(tmp, "reach_cli.cpp")
    obj = os.path.join(tmp, "reach_lib.o")
    archive = os.path.join(build, REACH_ARCHIVE)
    for path, text in ((lib_src, SELF_TEST_REACH_LIB),
                       (exe_src, SELF_TEST_REACH_EXE)):
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    for cmd in (
            ["c++", "-O2", "-ffunction-sections", "-fdata-sections", "-c",
             lib_src, "-o", obj],
            ["ar", "rcs", archive, obj],
            ["c++", "-O2", exe_src, archive, "-Wl,--gc-sections", "-o",
             os.path.join(build, "tools", "cli")]):
        subprocess.run(cmd, check=True)
    return build


def self_test_reach(tmp):
    """Names of the reach self-test's failures (empty when it passes)."""
    failures = []
    build = build_reach_fixture(tmp)
    keys = sorted(k for k, _ in check_reach(build))
    if keys != SELF_TEST_REACH_EXPECT:
        failures.append(f"reach findings {keys}, want "
                        f"{SELF_TEST_REACH_EXPECT}")
    allow = os.path.join(tmp, "reach_allow.txt")
    for text, with_reach, without in SELF_TEST_REACH_ALLOW:
        with open(allow, "w", encoding="utf-8") as f:
            f.write(text)
        for build_dir, want in ((build, with_reach), (None, without)):
            got = [e for e in run_checks(tmp, allow, build_dir)
                   if e.startswith("reach") or "'reach " in e]
            if len(got) != len(want) or not all(
                    w in g for w, g in zip(want, got)):
                failures.append(
                    f"reach allowlist {text.splitlines()} "
                    f"(--reach {build_dir}): errors {got}, want {want}")
    return failures


def self_test():
    with tempfile.TemporaryDirectory() as tmp:
        for rel, content in SELF_TEST_FILES.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        os.makedirs(os.path.join(tmp, "docs"))
        with open(os.path.join(tmp, ARCH_DOC), "w", encoding="utf-8") as f:
            f.write(SELF_TEST_ARCH)
        with open(os.path.join(tmp, OBS_DOC), "w", encoding="utf-8") as f:
            f.write(SELF_TEST_OBS)
        with open(os.path.join(tmp, CONCURRENCY_DOC), "w",
                  encoding="utf-8") as f:
            f.write(SELF_TEST_CONCURRENCY)

        keys = {k for k, _ in collect_findings(tmp)}

        failures = [k for k in SELF_TEST_EXPECT if k not in keys]
        unexpected = sorted(keys - set(SELF_TEST_EXPECT))
        for k in failures:
            print(f"arch-lint self-test: MISSED injected violation: {k}",
                  file=sys.stderr)
        for k in unexpected:
            print(f"arch-lint self-test: unexpected finding: {k}",
                  file=sys.stderr)
        reach_failures = self_test_reach(tmp)
        for f in reach_failures:
            print(f"arch-lint self-test: {f}", file=sys.stderr)
        failures += reach_failures
        ok = not failures and not unexpected
        print("arch-lint self-test: "
              + ("OK" if ok else
                 f"{len(failures)} missed, {len(unexpected)} unexpected"))
        return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", default=DEFAULT_REPO,
                    help="repository root to lint")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default: tools/arch_lint_allow.txt"
                         " under --repo)")
    ap.add_argument("--reach", metavar="BUILD_DIR", default=None,
                    help="also run the reach check against a section-GC "
                         "build of every target")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the linter catches injected violations")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    allow_path = args.allowlist
    if allow_path is None:
        allow_path = os.path.join(args.repo, "tools", "arch_lint_allow.txt")

    errors = run_checks(args.repo, allow_path, args.reach)
    for e in errors:
        print(f"arch-lint: {e}", file=sys.stderr)
    print("arch-lint: " + ("OK" if not errors else
                           f"{len(errors)} finding(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
