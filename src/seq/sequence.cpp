#include "seq/sequence.h"

namespace aalign::seq {

EncodedSequence encode(const score::Alphabet& alphabet, const Sequence& s) {
  return EncodedSequence{s.id, alphabet.encode(s.residues)};
}

}  // namespace aalign::seq
