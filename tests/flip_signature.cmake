# Builds an index of FASTA with aalign_index, then flips one bit of its
# SigPopcounts section (the high byte of subject 0's popcount, which is
# zero: a popcount never exceeds the signature width), located through
# the section table. Only the signature checksum catches the flip, so a
# Directory open accepts the file and its first filter use rejects it.
#   cmake -DINDEX_TOOL=<aalign_index> -DFASTA=<in> -DOUT=<index>
#         -P flip_signature.cmake
execute_process(COMMAND ${INDEX_TOOL} build -d ${FASTA} -o ${OUT}
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${INDEX_TOOL} build -d ${FASTA}: exit ${rc}")
endif()
# SectionEntry[6] (SigPopcounts, kind 7) sits after the 176-byte header;
# its u64 offset field is 8 bytes in.
math(EXPR entry "176 + 6 * 32 + 8")
file(READ ${OUT} le OFFSET ${entry} LIMIT 8 HEX)
set(be "")
foreach(i RANGE 14 0 -2)
  string(SUBSTRING "${le}" ${i} 2 byte)
  string(APPEND be "${byte}")
endforeach()
math(EXPR at "0x${be} + 3")
file(READ ${OUT} old OFFSET ${at} LIMIT 1 HEX)
if(NOT old STREQUAL "00")
  message(FATAL_ERROR "byte ${at} of ${OUT} is ${old}, expected 00")
endif()
string(ASCII 1 one)
file(WRITE ${OUT}.byte "${one}")
execute_process(COMMAND dd if=${OUT}.byte of=${OUT} bs=1 seek=${at} count=1
  conv=notrunc RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
file(REMOVE ${OUT}.byte)
file(READ ${OUT} new OFFSET ${at} LIMIT 1 HEX)
if(NOT rc STREQUAL "0" OR NOT new STREQUAL "01")
  message(FATAL_ERROR "could not flip byte ${at} of ${OUT}")
endif()
