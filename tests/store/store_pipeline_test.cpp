// The pipelined write path: a Writer hands each sealed block to its pool and
// keeps filling the next one. Stream failures and encode exceptions must
// surface on the caller's thread exactly as they do inline, and a Writer
// destroyed with a block in flight must wait for it rather than leave the
// task writing into freed buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <ios>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>

#include "par/thread_pool.h"
#include "store/reader.h"
#include "store/writer.h"

namespace harvest::store {
namespace {

constexpr std::size_t kRowsPerBlock = 64;

Schema pipeline_schema() {
  Schema schema;
  schema.decision_event = "decide";
  schema.context_fields = {"x"};
  schema.action_field = "a";
  schema.reward_field = "r";
  schema.num_actions = 3;
  return schema;
}

WriterOptions pipeline_options() {
  return {.rows_per_block = kRowsPerBlock, .blocks_per_shard = 2};
}

/// Accepts `limit` bytes, then fails every write (short count), as a full
/// disk would. Optionally sleeps before each write, so the block encode
/// that performs it is still in flight when the test moves on.
class LimitedBuf : public std::streambuf {
 public:
  explicit LimitedBuf(std::size_t limit,
                      std::chrono::milliseconds delay = {})
      : limit_(limit), delay_(delay) {}

  const std::string& bytes() const { return bytes_; }

 protected:
  // Writer only calls write() and flush(), which reach xsputn and sync.
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    const std::size_t take =
        std::min(static_cast<std::size_t>(n), limit_ - bytes_.size());
    bytes_.append(s, take);
    return static_cast<std::streamsize>(take);
  }

 private:
  std::size_t limit_;
  std::chrono::milliseconds delay_;
  std::string bytes_;
};

void add_row(Writer& writer, std::size_t i) {
  const double x[] = {static_cast<double>(i % 7)};
  writer.add(static_cast<double>(i), x, static_cast<std::uint32_t>(i % 3),
             0.5, 0.25);
}

/// Room for the header, the schema and a little of the first block.
std::size_t header_plus(std::size_t extra) {
  return encode_header_and_schema(pipeline_schema()).size() + extra;
}

TEST(StorePipelineTest, FailingStreamThrowsFromFinishWithAndWithoutPool) {
  par::ThreadPool pool(2);
  for (par::ThreadPool* p : {static_cast<par::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "pool");
    LimitedBuf buf(header_plus(100));
    std::ostream out(&buf);
    Writer writer(out, pipeline_schema(), pipeline_options(), p);
    for (std::size_t i = 0; i < 5 * kRowsPerBlock + 9; ++i) {
      add_row(writer, i);
    }
    try {
      writer.finish();
      FAIL() << "finish() did not report the failed stream";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "store::Writer: stream write failed");
    }
    EXPECT_NO_THROW(writer.finish());  // idempotent: reported once
  }
}

// With exceptions enabled on the stream, the first block's write throws
// inside its encode task. The throw must come back on the caller's thread,
// from the add() that seals the next block, at the same row with or
// without a pool.
TEST(StorePipelineTest, EncodeExceptionSurfacesFromNextAdd) {
  par::ThreadPool pool(2);
  for (par::ThreadPool* p : {static_cast<par::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "pool");
    LimitedBuf buf(header_plus(10));
    std::ostream out(&buf);
    out.exceptions(std::ios::badbit);
    Writer writer(out, pipeline_schema(), pipeline_options(), p);
    std::size_t added = 0;
    bool thrown = false;
    try {
      while (added < 4 * kRowsPerBlock) add_row(writer, added++);
    } catch (const std::ios_base::failure&) {
      thrown = true;
    }
    EXPECT_TRUE(thrown);
    EXPECT_EQ(added, 2 * kRowsPerBlock);
  }
}

TEST(StorePipelineTest, EncodeExceptionSurfacesFromFinish) {
  par::ThreadPool pool(2);
  for (par::ThreadPool* p : {static_cast<par::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "pool");
    LimitedBuf buf(header_plus(10));
    std::ostream out(&buf);
    out.exceptions(std::ios::badbit);
    Writer writer(out, pipeline_schema(), pipeline_options(), p);
    for (std::size_t i = 0; i < kRowsPerBlock + 5; ++i) add_row(writer, i);
    EXPECT_THROW(writer.finish(), std::ios_base::failure);
  }
}

// The destructor finishes a writer whose last full block is still being
// written (each write sleeps), so the file it leaves is complete.
TEST(StorePipelineTest, DestroyingWithBlockInFlightFinishesTheFile) {
  std::string inline_bytes;
  {
    std::ostringstream out;
    {
      Writer writer(out, pipeline_schema(), pipeline_options(), nullptr);
      for (std::size_t i = 0; i < 3 * kRowsPerBlock; ++i) add_row(writer, i);
    }
    inline_bytes = out.str();
  }
  par::ThreadPool pool(1);
  LimitedBuf buf(1 << 20, std::chrono::milliseconds(20));
  {
    std::ostream out(&buf);
    Writer writer(out, pipeline_schema(), pipeline_options(), &pool);
    for (std::size_t i = 0; i < 3 * kRowsPerBlock; ++i) add_row(writer, i);
  }
  EXPECT_EQ(buf.bytes(), inline_bytes);
  const Reader reader = Reader::from_memory(buf.bytes(), "in-flight");
  EXPECT_EQ(reader.rows(), 3 * kRowsPerBlock);
}

// Destroyed mid-failure: the in-flight encode throws after the writer's
// owner has given up on it. The destructor must swallow it and wait.
TEST(StorePipelineTest, DestroyingWithFailingBlockInFlightIsClean) {
  par::ThreadPool pool(1);
  LimitedBuf buf(header_plus(10), std::chrono::milliseconds(20));
  std::ostream out(&buf);
  out.exceptions(std::ios::badbit);
  {
    Writer writer(out, pipeline_schema(), pipeline_options(), &pool);
    for (std::size_t i = 0; i < kRowsPerBlock; ++i) add_row(writer, i);
  }
  EXPECT_TRUE(out.bad());
}

}  // namespace
}  // namespace harvest::store
