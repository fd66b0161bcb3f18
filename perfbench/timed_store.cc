#include "perfbench/timed_store.h"

namespace perfbench {

namespace {

// Context of the last bound-tag call on this thread, for the untagged Gc that follows a
// commit on the flusher thread.
thread_local Context t_last_tag_context;

// A wrapper span: one call on one store handle.
class CallSpan {
 public:
  CallSpan(const char* name, Context context, int track, size_t bytes = 0)
      : span_(name, context, static_cast<int64_t>(bytes)) {
    span_.set_track(track);
  }

 private:
  TimedSpan span_;
};

class TimedByteSource final : public ucp::ByteSource {
 public:
  TimedByteSource(std::unique_ptr<ucp::ByteSource> inner, Context context, int track)
      : inner_(std::move(inner)), context_(context), track_(track) {}

  uint64_t size() const override { return inner_->size(); }
  const std::string& name() const override { return inner_->name(); }
  ucp::Status ReadAt(uint64_t offset, void* out, size_t size) override {
    CallSpan span(kReadAtSpan, Resolve(), track_, size);
    return inner_->ReadAt(offset, out, size);
  }

 private:
  // Loader threads carry no context of their own; they inherit the opener's.
  Context Resolve() const {
    const Context current = CurrentContext();
    return current.op != 0 ? current : context_;
  }

  std::unique_ptr<ucp::ByteSource> inner_;
  Context context_;
  int track_;
};

class TimedWriter final : public ucp::StoreWriter {
 public:
  TimedWriter(std::unique_ptr<ucp::StoreWriter> inner, Context context, int track)
      : ucp::StoreWriter(inner->tag()),
        inner_(std::move(inner)),
        context_(context),
        track_(track) {}

  ucp::Status WriteFile(const std::string& rel, const void* data, size_t size) override {
    CallSpan span(kWriteFileSpan, context_, track_, size);
    return inner_->WriteFile(rel, data, size);
  }
  bool SupportsChunked() const override { return inner_->SupportsChunked(); }
  ucp::Result<ucp::ChunkedWriteStats> WriteFileChunked(const std::string& rel,
                                                       const void* data, size_t size,
                                                       const std::vector<uint64_t>& digests,
                                                       bool compress,
                                                       uint64_t inherited) override {
    CallSpan span(kWriteFileSpan, context_, track_, size);
    return inner_->WriteFileChunked(rel, data, size, digests, compress, inherited);
  }
  ucp::Status FinalizeManifest(const std::string& parent_tag) override {
    CallSpan span(kStagingSpan, context_, track_);
    return inner_->FinalizeManifest(parent_tag);
  }

 private:
  std::unique_ptr<ucp::StoreWriter> inner_;
  Context context_;
  int track_;
};

}  // namespace

void TimedStore::BindTag(const std::string& tag, Context context) {
  std::lock_guard<std::mutex> lock(mu_);
  tag_context_[tag] = context;
}

void TimedStore::SetDefaultContext(Context context) {
  std::lock_guard<std::mutex> lock(mu_);
  default_context_ = context;
}

Context TimedStore::ContextFor(const std::string& tag) {
  const Context current = CurrentContext();
  if (current.op != 0) {
    return current;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tag_context_.find(tag);
  if (it != tag_context_.end()) {
    t_last_tag_context = it->second;
    return it->second;
  }
  return default_context_;
}

ucp::Result<std::unique_ptr<ucp::ByteSource>> TimedStore::OpenRead(const std::string& rel) {
  const Context context = ContextFor("");
  ucp::Result<std::unique_ptr<ucp::ByteSource>> source = [&] {
    CallSpan span(kOpenReadSpan, context, track_);
    return inner_->OpenRead(rel);
  }();
  if (!source.ok()) {
    return source.status();
  }
  return std::unique_ptr<ucp::ByteSource>(
      std::make_unique<TimedByteSource>(std::move(*source), context, track_));
}

ucp::Result<std::unique_ptr<ucp::StoreWriter>> TimedStore::OpenTagForWrite(
    const std::string& tag) {
  const Context context = ContextFor(tag);
  ucp::Result<std::unique_ptr<ucp::StoreWriter>> writer = [&] {
    CallSpan span(kStagingSpan, context, track_);
    return inner_->OpenTagForWrite(tag);
  }();
  if (!writer.ok()) {
    return writer.status();
  }
  return std::unique_ptr<ucp::StoreWriter>(
      std::make_unique<TimedWriter>(std::move(*writer), context, track_));
}

ucp::Status TimedStore::ResetTagStaging(const std::string& tag) {
  CallSpan span(kStagingSpan, ContextFor(tag), track_);
  return inner_->ResetTagStaging(tag);
}

ucp::Status TimedStore::CommitTag(const std::string& tag, const std::string& meta_json) {
  CallSpan span(kCommitTagSpan, ContextFor(tag), track_);
  return inner_->CommitTag(tag, meta_json);
}

ucp::Status TimedStore::AbortTag(const std::string& tag) {
  CallSpan span(kStagingSpan, ContextFor(tag), track_);
  return inner_->AbortTag(tag);
}

ucp::Result<ucp::GcReport> TimedStore::Gc(const std::string& job, int keep_last,
                                          bool dry_run) {
  // Gc carries no tag; on the flusher it follows the commit it belongs to.
  const Context current = CurrentContext();
  CallSpan span(kGcSpan, current.op != 0 ? current : t_last_tag_context, track_);
  return inner_->Gc(job, keep_last, dry_run);
}

}  // namespace perfbench
