# Builds an index of FASTA with aalign_index, then flips one bit of its
# SigPopcounts section (the high byte of subject 0's popcount, which is
# zero: a popcount never exceeds the signature width), located by its kind
# in the section table. Only the signature checksum catches the flip, so a
# Directory open accepts the file and its first filter use rejects it.
#   cmake -DINDEX_TOOL=<aalign_index> -DFASTA=<in> -DOUT=<index>
#         -P flip_signature.cmake
execute_process(COMMAND ${INDEX_TOOL} build -d ${FASTA} -o ${OUT}
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${INDEX_TOOL} build -d ${FASTA}: exit ${rc}")
endif()
# The little-endian unsigned integer of BYTES bytes at OFFSET of the index.
function(read_le var offset bytes)
  file(READ ${OUT} le OFFSET ${offset} LIMIT ${bytes} HEX)
  set(be "")
  math(EXPR last "2 * ${bytes} - 2")
  foreach(i RANGE ${last} 0 -2)
    string(SUBSTRING "${le}" ${i} 2 byte)
    string(APPEND be "${byte}")
  endforeach()
  math(EXPR value "0x${be}")
  set(${var} ${value} PARENT_SCOPE)
endfunction()
# SigPopcounts' kind, as store/format.h numbers it, found in the section
# table: Header::section_count is the u32 at 68 of the 176-byte header, and
# each 32-byte SectionEntry that follows starts with its u32 kind, its u64
# offset 8 bytes in.
file(STRINGS ${CMAKE_CURRENT_LIST_DIR}/../src/store/format.h kind_line
  REGEX "^ *SigPopcounts = [0-9]+,")
string(REGEX REPLACE "^ *SigPopcounts = ([0-9]+),.*" "\\1" sig_kind
  "${kind_line}")
if(NOT sig_kind MATCHES "^[0-9]+$")
  message(FATAL_ERROR "no SigPopcounts kind in store/format.h")
endif()
read_le(count 68 4)
set(section "")
math(EXPR last "${count} - 1")
foreach(i RANGE 0 ${last})
  math(EXPR entry "176 + ${i} * 32")
  read_le(kind ${entry} 4)
  if(kind EQUAL sig_kind)
    set(section ${entry})
  endif()
endforeach()
if(section STREQUAL "")
  message(FATAL_ERROR "${OUT} has no section of kind ${sig_kind}")
endif()
math(EXPR field "${section} + 8")
read_le(sig_offset ${field} 8)
math(EXPR at "${sig_offset} + 3")
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
