struct Frame { double pos; double vel; double acc; double tilt; long seq; };
typedef struct Frame Frame;

Frame *probe41;

extern void sendControl(double v);

void initShm()
/*** SafeFlow Annotation shminit ***/
{
  int id;
  void *base;
  id = shmget(8710, sizeof(Frame), 438);
  base = shmat(id, (void *) 0, 0);
  probe41 = (Frame *) base;
  /*** SafeFlow Annotation
       assume(shmvar(probe41, sizeof(Frame)))
       assume(noncore(probe41)) ***/
}

int main()
{
  double x;
  double out = 0.3809;
  initShm();
  x = probe41->vel;
  if (x > 1.1225) {
    out = 73.3400;
    if (x > 2.4465) {
      out = 40.2400;
      if (x > 3.4715) {
        out = 89.1300;
        if (x > 4.5670) {
          out = 91.7800;
          if (x > 5.6825) {
            out = 39.0700;
            if (x > 6.7275) {
              out = 17.9100;
              if (x > 7.7910) {
                out = 73.8900;
                if (x > 8.8985) {
                  out = 17.0500;
                  if (x > 10.1050) {
                    out = 46.2300;
                    if (x > 11.3265) {
                      out = 89.2200;
                      if (x > 12.8095) {
                        out = 19.5400;
                        if (x > 13.9045) {
                          out = 4.3100;
                          if (x > 15.0930) {
                            out = 62.8000;
                            if (x > 16.0940) {
                              out = 68.6000;
                              if (x > 17.5635) {
                                out = 75.1800;
                                if (x > 19.0375) {
                                  out = 16.8500;
                                  if (x > 20.3495) {
                                    out = 78.0200;
                                    if (x > 21.5075) {
                                      out = 0.2300;
                                      if (x > 22.6335) {
                                        out = 82.6300;
                                        if (x > 23.7850) {
                                          out = 46.7300;
                                          if (x > 25.0805) {
                                            out = 57.5500;
                                            if (x > 26.1345) {
                                              out = 37.1400;
                                              if (x > 27.2895) {
                                                out = 2.4100;
                                                if (x > 28.6430) {
                                                  out = 49.1200;
                                                  if (x > 30.0420) {
                                                    out = 31.1100;
                                                    if (x > 31.1660) {
                                                      out = 3.8600;
                                                      if (x > 32.1720) {
                                                        out = 8.2200;
                                                        if (x > 33.2715) {
                                                          out = 2.8300;
                                                          if (x > 34.5555) {
                                                            out = 15.4500;
                                                            if (x > 35.7365) {
                                                              out = 29.6400;
                                                              if (x > 37.1285) {
                                                                out = 92.9300;
                                                                if (x > 38.5555) {
                                                                  out = 25.8000;
                                                                  if (x > 39.7320) {
                                                                    out = 35.8800;
                                                                    if (x > 40.9020) {
                                                                      out = 64.1400;
                                                                      if (x > 41.9300) {
                                                                        out = 16.3700;
                                                                        if (x > 43.3875) {
                                                                          out = 98.6300;
                                                                          if (x > 44.7905) {
                                                                            out = 17.7900;
                                                                            if (x > 46.1315) {
                                                                              out = 76.6700;
                                                                              if (x > 47.1645) {
                                                                                out = 91.6000;
                                                                                if (x > 48.4140) {
                                                                                  out = 70.9900;
                                                                                }
                                                                              }
                                                                            }
                                                                          }
                                                                        }
                                                                      }
                                                                    }
                                                                  }
                                                                }
                                                              }
                                                            }
                                                          }
                                                        }
                                                      }
                                                    }
                                                  }
                                                }
                                              }
                                            }
                                          }
                                        }
                                      }
                                    }
                                  }
                                }
                              }
                            }
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  /*** SafeFlow Annotation assert(safe(out)) ***/
  sendControl(out);
  return 0;
}
