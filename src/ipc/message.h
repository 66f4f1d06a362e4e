// Messages and kernel return codes.
//
// "A message is a typed collection of data objects; communication is
// performed by sending messages to ports." Our message carries an
// operation code, inline data words, and (optionally) a reply-port right —
// the port reference the paper's section 10 step 1 mentions: "This message
// contains a reference to the port from which it was received."
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <vector>

#include "kern/object.h"

namespace mach {

enum kern_return_t : int {
  KERN_SUCCESS = 0,
  KERN_FAILURE = 1,
  KERN_INVALID_NAME = 2,      // no such name in the IPC space
  KERN_TERMINATED = 3,        // object deactivated / port dead
  KERN_INVALID_OP = 4,        // no stub registered for the operation
  KERN_NO_SPACE = 5,          // message queue full
  KERN_RESOURCE_SHORTAGE = 6, // allocation failed
  KERN_TIMED_OUT = 7,
  KERN_ABORTED = 8,
};

const char* to_string(kern_return_t kr) noexcept;

class port;

// The data words a message carries. Up to `inline_words` words live inside
// the message itself, as Mach 3.0's inline typed data, so a body that fits
// (every machcached request and reply: a SET is key + stamp + 8 value
// words) costs no allocation to build, queue or move. Longer bodies spill
// to one heap block. The surface is the subset of std::vector the IPC
// callers use; insert's source range must not alias the body.
class message_body {
 public:
  using value_type = std::uint64_t;
  using size_type = std::size_t;
  using iterator = value_type*;
  using const_iterator = const value_type*;
  static constexpr size_type inline_words = 10;

  message_body() noexcept = default;
  message_body(std::initializer_list<value_type> words) { append(words.begin(), words.size()); }
  message_body(const std::vector<value_type>& words) {  // NOLINT(google-explicit-constructor)
    append(words.data(), words.size());
  }
  message_body(const message_body& o) { append(o.data(), o.size()); }
  message_body(message_body&& o) noexcept { take(o); }
  ~message_body() { free_heap(); }

  message_body& operator=(const message_body& o) {
    if (this != &o) {
      size_ = 0;
      append(o.data(), o.size());
    }
    return *this;
  }
  message_body& operator=(message_body&& o) noexcept {
    if (this != &o) {
      free_heap();
      take(o);
    }
    return *this;
  }
  message_body& operator=(std::initializer_list<value_type> words) {
    size_ = 0;
    append(words.begin(), words.size());
    return *this;
  }

  value_type* data() noexcept { return spilled() ? heap_ : inline_; }
  const value_type* data() const noexcept { return spilled() ? heap_ : inline_; }
  size_type size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  // True once the body has outgrown the inline words.
  bool spilled() const noexcept { return cap_ > inline_words; }

  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }
  value_type& operator[](size_type i) noexcept { return data()[i]; }
  const value_type& operator[](size_type i) const noexcept { return data()[i]; }

  void reserve(size_type n) { (void)room(n); }
  void push_back(value_type w) {
    room(size_ + 1)[size_] = w;
    ++size_;
  }
  // New words are zero, as std::vector value-initializes them.
  void resize(size_type n) {
    value_type* p = room(n);
    if (n > size_) std::fill(p + size_, p + n, value_type{0});
    size_ = static_cast<std::uint32_t>(n);
  }
  template <class It>
  iterator insert(const_iterator pos, It first, It last) {
    const size_type at = static_cast<size_type>(pos - data());
    const size_type n = static_cast<size_type>(std::distance(first, last));
    value_type* p = room(size_ + n) + at;
    std::memmove(p + n, p, (size_ - at) * sizeof(value_type));
    std::copy(first, last, p);
    size_ += static_cast<std::uint32_t>(n);
    return p;
  }

  friend bool operator==(const message_body& a, const message_body& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const message_body& a, const std::vector<value_type>& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  // Storage for at least n words, the current ones kept.
  value_type* room(size_type n) { return n > cap_ ? grow(n) : data(); }
  void append(const value_type* words, size_type n) {
    value_type* p = room(size_ + n);
    if (n != 0) std::memcpy(p + size_, words, n * sizeof(value_type));
    size_ += static_cast<std::uint32_t>(n);
  }
  // Take o's words and leave o empty and inline. Our heap block, if any,
  // is already freed.
  void take(message_body& o) noexcept {
    size_ = o.size_;
    cap_ = o.cap_;
    if (o.spilled()) {
      heap_ = o.heap_;
    } else if (o.size_ != 0) {
      std::memcpy(inline_, o.inline_, o.size_ * sizeof(value_type));
    }
    o.size_ = 0;
    o.cap_ = inline_words;
  }
  void free_heap() noexcept {
    if (spilled()) delete[] heap_;
  }
  value_type* grow(size_type need);  // port.cpp

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = inline_words;
  union {
    value_type inline_[inline_words];
    value_type* heap_ = nullptr;  // one store keeps GCC's uninitialized-use check quiet
  };
};

struct message {
  std::uint32_t op = 0;          // operation selector (request) / echo (reply)
  kern_return_t ret = KERN_SUCCESS;  // result code (meaningful in replies)
  message_body data;             // inline typed data, simplified to words
  ref_ptr<port> reply_to;        // carried port right: holds one reference
  // kspan causal-tracing context (trace/kspan.h), carried across the IPC
  // hop like a trace header: port::send stamps it from the sender's active
  // span when unset, the receiver adopts it (kspan::adopt_scope), and a
  // reply sent under the adopted scope carries the same trace id back.
  // span_sent_nanos is the enqueue stamp port::send records alongside it so
  // the dequeue side can attribute queue-wait time. Both are 0 (and cost
  // nothing) when spans are disabled.
  std::uint64_t span_ctx = 0;
  std::uint64_t span_sent_nanos = 0;

  message() = default;
  message(std::uint32_t op_, message_body data_ = {})
      : op(op_), data(std::move(data_)) {}
};

}  // namespace mach
