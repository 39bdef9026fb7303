#pragma once

// gtest names each value-parameterized case after its parameter, and prints
// a struct that has no printer of its own as a byte dump ("12-byte object
// <..>"). That dump includes the struct's padding, which holds whatever was
// on the stack, and ctest bakes the names in when the test is built — so the
// names changed from build to build. print_fields_as_bytes prints the same
// dump with the padding zeroed: each listed field is copied to its own offset
// in an otherwise zero buffer.

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <type_traits>

namespace flashmark::test {

template <typename T, typename... Fields>
void print_fields_as_bytes(const T& value, std::ostream* os, const Fields&... fields) {
  static_assert(std::is_standard_layout_v<T>);
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  (std::memcpy(bytes + (reinterpret_cast<const unsigned char*>(&fields) - base), &fields,
               sizeof(Fields)),
   ...);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(T), os);
}

}  // namespace flashmark::test
