// Paradigm verification (paper Sec. V-D): checks that a parsed kernel fits
// the generalized pairwise-alignment paradigm before any vector code is
// emitted, reporting every violation into a DiagnosticEngine instead of
// stopping at the first. The passes, in order:
//
//   1. constant discipline  - undeclared constants (AA033), unused
//                             constants (AA034)
//   2. loop shape           - a doubly nested recurrence loop must exist
//                             (AA020)
//   3. dependency distance  - every cell reference inside the compute loop
//                             must be one of {i-1,j-1}, {i-1,j}, {i,j-1},
//                             {i,j} (AA030, with a fix-it note), and every
//                             subscript must be affine in the loop
//                             variables with the [outer][inner] axis order
//                             (AA031)
//   4. Table II extraction  - the D / U / L recurrences and the working-
//                             table max (AA021..AA027), gap-shape
//                             classification against the affine (Eqs. 3-4)
//                             and linear (Eqs. 5-6) forms (AA032), and the
//                             boundary-initialization consistency warnings
//                             (AA040, AA041)
//   5. scan eligibility     - the weighted max-scan (Fig. 8) needs a single
//                             (first, extend) weight pair along the query
//                             axis; kernels expressing the query gap through
//                             two different pairs get AA035 and are pinned
//                             to striped-iterate
//
// verify() never throws: it reports and returns the best-effort KernelSpec
// (callers must treat it as unusable when diags.has_errors()).
#pragma once

#include <string>
#include <vector>

#include "codegen/diagnostics.h"
#include "codegen/parser.h"
#include "core/config.h"

namespace aalign::codegen {

// The Table II parameters of a verified kernel: local vs global (a literal
// 0 among the T-max operands), linear vs affine (gap-open vs gap-extend
// constants), and the tables and sequences the recurrences name.
struct KernelSpec {
  AlignKind kind = AlignKind::Local;
  GapModel gap = GapModel::Affine;
  // Positive penalties, paper convention: GAP_* constants in the source
  // are the ADDITIVE (negative) theta+beta / beta values.
  int open_query = 0, ext_query = 0;      // U recurrence (inner loop axis)
  int open_subject = 0, ext_subject = 0;  // L recurrence (outer loop axis)
  std::string matrix;       // substitution table identifier, e.g. BLOSUM62
  std::string table;        // the working-set table (T)
  std::string query_seq;    // sequence indexed along the inner loop
  std::string subject_seq;  // sequence indexed along the outer loop
  // False when the weighted max-scan precondition fails (AA035): the
  // emitters then pin the kernel to striped-iterate.
  bool scan_eligible = true;
  std::vector<std::string> warnings;

  AlignConfig to_config() const;
  std::string summary() const;
};

KernelSpec verify(const Program& program, DiagnosticEngine& diags);

}  // namespace aalign::codegen
